package kbt

// defaultKeyRetention bounds the idempotency-key dedup set of both engines:
// the most recent 64Ki keys are remembered. The bound is the effective client
// retry window — a resend of a key evicted from it is treated as a new batch —
// so it is deliberately generous; at ~64-byte keys it costs a few MiB of
// memory and checkpoint space.
const defaultKeyRetention = 64 * 1024

// keyring is a bounded idempotency-key set with oldest-first eviction. It is
// not safe for concurrent use; both engines guard it with their mutator lock.
// Set cap before the first add.
type keyring struct {
	cap   int // the most keys retained
	set   map[string]struct{}
	order []string // insertion order, oldest first
}

// has reports whether key is retained. The empty key is never retained.
func (k *keyring) has(key string) bool {
	_, ok := k.set[key]
	return ok
}

// add retains key, evicting the oldest retained keys beyond the cap. Adding
// an already-retained or empty key is a no-op (a re-add does not refresh the
// key's age: its retry window runs from the first durable application).
func (k *keyring) add(key string) {
	if key == "" || k.has(key) {
		return
	}
	if k.set == nil {
		k.set = make(map[string]struct{})
	}
	k.set[key] = struct{}{}
	k.order = append(k.order, key)
	for len(k.order) > k.cap {
		delete(k.set, k.order[0])
		// Sliding the window leaves the evicted prefix in the backing array
		// until append next reallocates, which bounds the slack at one
		// array's worth — fine for a cap-sized ring.
		k.order = k.order[1:]
	}
}

// keys returns the retained keys oldest-first. The slice aliases the ring's
// storage; callers must not hold it across a later add.
func (k *keyring) keys() []string { return k.order }

// len returns the number of retained keys.
func (k *keyring) len() int { return len(k.order) }
