package pool

import "sync"

// Call is one in-flight computation shared by every caller that joined
// its key while it ran. Done is closed once the leader has published
// its value; a zero value means the leader aborted without an answer,
// and followers must compute on their own.
type Call[V any] struct {
	done chan struct{}
	val  V
}

// Done is closed when the leader finishes.
func (c *Call[V]) Done() <-chan struct{} { return c.done }

// Val is the leader's value; read it only after Done is closed.
func (c *Call[V]) Val() V { return c.val }

// Group coalesces duplicate concurrent computations (singleflight): the
// first caller for a key becomes the leader and runs it; later callers
// for the same key wait on the leader's Call instead of running their
// own. Entries live only while the leader runs, so completed results are
// the caller's cache's job. The zero value is ready to use.
type Group[V any] struct {
	mu sync.Mutex
	m  map[string]*Call[V]
}

// Join returns the call for key, creating it if absent. The creator is
// the leader (second return true) and must eventually call Finish, also
// when it fails: a deferred Finish with the zero value releases the
// followers.
func (g *Group[V]) Join(key string) (*Call[V], bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.m[key]; ok {
		return c, false
	}
	if g.m == nil {
		g.m = make(map[string]*Call[V])
	}
	c := &Call[V]{done: make(chan struct{})}
	g.m[key] = c
	return c, true
}

// Finish publishes the leader's value to the call's followers and
// retires the key, so the next Join starts a fresh call.
func (g *Group[V]) Finish(key string, c *Call[V], v V) {
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	c.val = v
	close(c.done)
}
