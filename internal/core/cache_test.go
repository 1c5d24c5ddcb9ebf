package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/framework"
)

// TestCachedTrainsOncePerKey: concurrent callers of one key share a
// single training and its model.
func TestCachedTrainsOncePerKey(t *testing.T) {
	s, err := NewSuite(ScaleTest, 1)
	if err != nil {
		t.Fatal(err)
	}
	key := modelKey{data: framework.MNIST, resnet: true}
	want := &trainedModel{}
	var calls atomic.Int32
	release := make(chan struct{})
	train := func() (*trainedModel, error) {
		calls.Add(1)
		<-release
		return want, nil
	}
	const callers = 4
	var wg sync.WaitGroup
	got := make([]*trainedModel, callers)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tm, err := s.cached(context.Background(), key, train)
			if err != nil {
				t.Error(err)
			}
			got[i] = tm
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("%d trainings for one key, want 1", n)
	}
	for i, tm := range got {
		if tm != want {
			t.Fatalf("caller %d got %p, want the single trained model %p", i, tm, want)
		}
	}
}

// TestCachedPanicReleasesWaiters: a training that panics ends its flight,
// so a caller waiting on it trains the key itself instead of hanging.
func TestCachedPanicReleasesWaiters(t *testing.T) {
	s, err := NewSuite(ScaleTest, 1)
	if err != nil {
		t.Fatal(err)
	}
	key := modelKey{data: framework.MNIST, resnet: true}
	started, release := make(chan struct{}), make(chan struct{})
	go func() {
		defer func() { recover() }() //nolint:errcheck // the panic is the point
		s.cached(context.Background(), key, func() (*trainedModel, error) {
			close(started)
			<-release
			panic("training blew up")
		})
	}()
	<-started
	want := &trainedModel{}
	done := make(chan *trainedModel, 1)
	go func() {
		tm, err := s.cached(context.Background(), key, func() (*trainedModel, error) { return want, nil })
		if err != nil {
			t.Error(err)
		}
		done <- tm
	}()
	time.Sleep(20 * time.Millisecond)
	close(release)
	select {
	case tm := <-done:
		if tm != want {
			t.Fatalf("waiter got %p, want its own training %p", tm, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter wedged behind a panicked training")
	}
}
