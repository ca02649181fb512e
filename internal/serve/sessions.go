package serve

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"sync"
	"time"
)

// session is one client-held streaming-TSQR session: rows arrive in
// batches and solves are served from the resident triangle. The mutex
// serializes use — a stream is a single-writer structure — so two
// concurrent appends to one session queue behind each other instead of
// corrupting it.
type session struct {
	id   string
	prec string

	mu     sync.Mutex // serializes stream use
	stream streamOps

	// lastUsed and gone are guarded by the owning table's lock, not mu:
	// the evictor must be able to age sessions without waiting behind a
	// long-running append.
	lastUsed time.Time
	gone     bool
}

// errSessionLimit reports a full session table; errNoSession an unknown or
// already-evicted id.
var (
	errSessionLimit = errors.New("session table full")
	errNoSession    = errors.New("unknown or expired session")
)

// sessionTable is a bounded TTL-evicting session registry. Eviction is
// lazy: every mutation sweeps expired sessions when at least ttl/4 has
// passed since the previous sweep, so no background goroutine is needed and
// an idle table still cannot exceed its bound.
type sessionTable struct {
	ttl time.Duration
	max int

	mu        sync.Mutex
	m         map[string]*session
	lastSweep time.Time
}

func newSessionTable(ttl time.Duration, max int) *sessionTable {
	return &sessionTable{ttl: ttl, max: max, m: make(map[string]*session)}
}

// newID returns a fresh random session id.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand failing means the host is unusable
	}
	return "s-" + hex.EncodeToString(b[:])
}

// add registers a session, enforcing the table bound (expired sessions are
// swept first, so a table full of dead sessions does not refuse work).
func (t *sessionTable) add(s *session) error {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sweepLocked(now, true)
	if len(t.m) >= t.max {
		return errSessionLimit
	}
	s.id = newID()
	s.lastUsed = now
	t.m[s.id] = s
	return nil
}

// get looks a session up and bumps its last-used time.
func (t *sessionTable) get(id string) (*session, error) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sweepLocked(now, false)
	s := t.m[id]
	if s == nil || s.gone {
		return nil, errNoSession
	}
	s.lastUsed = now
	return s, nil
}

// remove deletes a session (client DELETE).
func (t *sessionTable) remove(id string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.m[id]
	if s == nil {
		return errNoSession
	}
	s.gone = true
	delete(t.m, id)
	return nil
}

// count returns the live session count.
func (t *sessionTable) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// sweep evicts every session idle past the TTL; exposed for tests and for
// callers that want eager eviction.
func (t *sessionTable) sweep() {
	t.mu.Lock()
	t.sweepLocked(time.Now(), true)
	t.mu.Unlock()
}

// sweepLocked drops expired sessions. force bypasses the ttl/4 rate limit.
// A session whose append is mid-flight when it expires finishes that append
// (the worker goroutine holds s.mu, not the table lock) and then reports
// "unknown session" on the next lookup — eviction never corrupts in-flight
// work.
func (t *sessionTable) sweepLocked(now time.Time, force bool) {
	if !force && now.Sub(t.lastSweep) < t.ttl/4 {
		return
	}
	t.lastSweep = now
	for id, s := range t.m {
		if now.Sub(s.lastUsed) > t.ttl {
			s.gone = true
			delete(t.m, id)
		}
	}
}
