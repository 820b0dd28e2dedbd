package cluster

// proxied is one replica answer held by the front: the upstream status,
// the raw JSON body, and which replica produced it. The cluster
// singleflight (a pool.Group[proxied] keyed on the canonical request
// key) replays these to followers, so K identical requests arriving at
// the front execute one solve on one replica, however many replicas
// exist. Like the in-replica cache, only deterministic domain answers
// (200, 422) qualify; a zero proxied (status 0) means the leader
// aborted without an answer.
type proxied struct {
	status  int
	body    []byte
	replica string
	cached  string // upstream X-Mpss-Cache header, if any
}

// cacheable reports whether a proxied response may be replayed to
// other requests with the same key — the same rule as the replica
// result cache: deterministic domain answers only.
func (p proxied) cacheable() bool {
	return p.status == 200 || p.status == 422
}
