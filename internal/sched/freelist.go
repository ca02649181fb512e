package sched

import (
	"reflect"
	"sync"
)

// A FreeList keeps at most freeEntries values retaining at most freeBytes
// bytes in all.
const (
	freeEntries = 8
	freeBytes   = 32 << 20
)

// FreeList lends reusable scratch values to any goroutine: a stack under
// one mutex, bounded in entries and in the bytes its values retain. The
// zero value is empty and ready. It stands where a sync.Pool would lose
// warm scratch: a pool empties at garbage collections and parks a Put in
// the putting P's private slot, where a caller that has moved to another P
// does not look, so a warm caller pays for its scratch again. A value that
// would break a bound is dropped for the collector instead.
type FreeList[E any] struct {
	mu    sync.Mutex
	items []E
	sizes []int
	bytes int
}

// Get pops the value put last, reporting false when the list is empty.
func (l *FreeList[E]) Get() (e E, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	k := len(l.items) - 1
	if k < 0 {
		return e, false
	}
	e, l.items[k] = l.items[k], e
	l.bytes -= l.sizes[k]
	l.items, l.sizes = l.items[:k], l.sizes[:k]
	return e, true
}

// Put lends e, which retains n bytes, to later Gets, or drops it when the
// list is full.
func (l *FreeList[E]) Put(e E, n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.items) == freeEntries || l.bytes+n > freeBytes {
		return
	}
	l.items, l.sizes = append(l.items, e), append(l.sizes, n)
	l.bytes += n
}

// locals lends Local boxes to goroutines that run work outside a pool
// worker: inline runs, and the engine's Q applications and solves.
var locals FreeList[*Local]

// GetLocal borrows a Local, warm with the scratch its last borrower grew
// when the list has one. A goroutine holds at most one at a time and gives
// it back with PutLocal.
func GetLocal() *Local {
	if loc, ok := locals.Get(); ok {
		return loc
	}
	return &Local{}
}

// PutLocal returns loc, counting the slices its Slots hold (the engine's
// kernel workspaces) as its retained bytes.
func PutLocal(loc *Local) {
	n := 0
	for _, s := range loc.Slots {
		if v := reflect.ValueOf(s); v.Kind() == reflect.Slice {
			n += v.Cap() * int(v.Type().Elem().Size())
		}
	}
	locals.Put(loc, n)
}
