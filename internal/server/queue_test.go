package server

import (
	"fmt"
	"testing"
	"time"
)

func qjob(id string, seed uint64) *Job {
	spec := JobSpec{Framework: "tf", Dataset: "mnist", Seed: seed}
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	return newJob(id, spec, "", false, nil)
}

// TestQueueFIFOWithinShard: the queue is one FIFO across every spec.
func TestQueueFIFOWithinShard(t *testing.T) {
	q := newQueue(4)
	for i := 0; i < 3; i++ {
		if !q.push(qjob(fmt.Sprintf("j-%d", i), uint64(i+1))) {
			t.Fatalf("push %d rejected below capacity", i)
		}
	}
	for i := 0; i < 3; i++ {
		j := q.next()
		if j == nil || j.ID != fmt.Sprintf("j-%d", i) {
			t.Fatalf("next %d = %v, want j-%d", i, j, i)
		}
	}
	if q.depth() != 0 {
		t.Fatalf("depth after popping every job = %d, want 0", q.depth())
	}
}

// TestQueueRejectsAtCapacity: the capacity bounds the whole queue,
// whatever the specs of the queued jobs.
func TestQueueRejectsAtCapacity(t *testing.T) {
	q := newQueue(2)
	if !q.push(qjob("j-1", 42)) || !q.push(qjob("j-2", 7)) {
		t.Fatal("pushes below capacity rejected")
	}
	if q.push(qjob("j-3", 99)) {
		t.Fatal("push above capacity admitted")
	}
	if q.depth() != 2 {
		t.Fatalf("depth = %d, want 2", q.depth())
	}
}

func TestQueueCloseStopsAdmissionAndDrains(t *testing.T) {
	q := newQueue(4)
	if !q.push(qjob("j-1", 1)) || !q.push(qjob("j-2", 2)) {
		t.Fatal("setup pushes rejected")
	}
	q.close()
	if q.push(qjob("j-3", 3)) {
		t.Fatal("push admitted after close")
	}
	if j := q.next(); j != nil {
		t.Fatalf("next after close = %s, want nil (queued jobs stay for drain)", j.ID)
	}
	left := q.drainPending()
	if len(left) != 2 {
		t.Fatalf("drainPending returned %d jobs, want 2", len(left))
	}
	if q.depth() != 0 {
		t.Fatalf("depth after drain = %d, want 0", q.depth())
	}
}

// TestQueueCloseWakesWaiters: a worker blocked on an empty queue returns
// when the queue closes.
func TestQueueCloseWakesWaiters(t *testing.T) {
	q := newQueue(1)
	got := make(chan *Job)
	go func() { got <- q.next() }()
	time.Sleep(10 * time.Millisecond)
	q.close()
	select {
	case j := <-got:
		if j != nil {
			t.Fatalf("next on a closed empty queue = %s, want nil", j.ID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("close did not wake a waiting worker")
	}
}
