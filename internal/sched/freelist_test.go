package sched

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"tiledqr/internal/core"
)

// TestFreeListBounds: a FreeList hands back what was put, last first, keeps
// it across garbage collections, and drops a Put that would take it past
// freeEntries values or freeBytes bytes.
func TestFreeListBounds(t *testing.T) {
	var l FreeList[int]
	if _, ok := l.Get(); ok {
		t.Fatal("Get on an empty list reported a value")
	}
	for i := 0; i < freeEntries+1; i++ {
		l.Put(i, 1)
	}
	runtime.GC()
	for want := freeEntries - 1; want >= 0; want-- {
		if got, ok := l.Get(); !ok || got != want {
			t.Fatalf("Get = %d, %v; want %d, true", got, ok, want)
		}
	}
	if _, ok := l.Get(); ok {
		t.Fatalf("the list kept more than %d values", freeEntries)
	}
	l.Put(1, freeBytes/2)
	l.Put(2, freeBytes/2+1)
	l.Put(3, freeBytes/2)
	if a, _ := l.Get(); a != 3 || l.bytes != freeBytes/2 {
		t.Fatalf("Get = %d with %d bytes kept; want 3, the over-budget value dropped and %d bytes kept", a, l.bytes, freeBytes/2)
	}
}

// TestInlineLocalKeepsScratch: an inline run finds the scratch the last
// one left in its Local, even across a garbage collection, and the list
// counts that scratch's bytes against its budget.
func TestInlineLocalKeepsScratch(t *testing.T) {
	d := core.BuildDAG(core.GreedyList(2, 1), core.TT)
	var first, second *Local
	if _, err := RunInline(d, Options{}, func(_ int32, loc *Local) error {
		if loc.Slots[0] == nil {
			loc.Slots[0] = make([]float64, 1000)
		}
		first = loc
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if _, err := RunInline(d, Options{}, func(_ int32, loc *Local) error { second = loc; return nil }); err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatal("a GC between two inline runs lost the warm Local")
	}
	locals.mu.Lock()
	defer locals.mu.Unlock()
	if locals.bytes < 8000 {
		t.Fatalf("the list counts %d bytes for a Local holding 8000", locals.bytes)
	}
}

// TestFreeListConcurrent lends values between goroutines at once (run it
// under -race): afterwards the list is within its bounds and counts the
// bytes of exactly the values it holds.
func TestFreeListConcurrent(t *testing.T) {
	var l FreeList[*int]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				v, ok := l.Get()
				if !ok {
					v = new(int)
				}
				*v++
				l.Put(v, 1<<20)
			}
		}()
	}
	wg.Wait()
	if len(l.items) > freeEntries || l.bytes > freeBytes || l.bytes != len(l.items)<<20 {
		t.Fatalf("%d values retaining %d bytes after the run", len(l.items), l.bytes)
	}
}

// TestReserveGrowsEveryWorker: Reserve makes the scratch of every worker
// at once, and none for a size an earlier Reserve of the slot covered;
// whichever worker runs a task then holds the reserved scratch.
func TestReserveGrowsEveryWorker(t *testing.T) {
	rt := NewRuntime(3)
	defer rt.Close()
	made := 0
	mk := func(n int) any { made++; return make([]byte, n) }
	rt.Reserve(2, 100, mk)
	rt.Reserve(2, 50, mk)
	if made != 3 {
		t.Fatalf("Reserve made %d scratch buffers, want one per worker (3)", made)
	}
	d := core.BuildDAG(core.GreedyList(12, 6), core.TT)
	if _, err := rt.Exec(NewPlan(d), Options{}, func(_ int32, loc *Local) error {
		if s, _ := loc.Slots[2].([]byte); len(s) != 100 {
			return fmt.Errorf("worker %d holds %d bytes of scratch after Reserve(100)", loc.ID, len(s))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
