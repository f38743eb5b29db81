package fault

// rng is a small deterministic pseudo-random stream (splitmix64). The
// fault layer cannot use math/rand: replayability demands that the
// sequence is a pure function of the plan seed, stable across Go
// versions and platforms, and that independent fault dimensions draw
// from independent streams so enabling one never shifts another's
// decisions.
type rng struct {
	s uint64
}

// streamRNG derives the stream-th independent stream from seed. The
// golden-ratio increment of splitmix64 keeps nearby (seed, stream)
// pairs decorrelated.
func streamRNG(seed, stream uint64) rng { return rng{s: seed + stream*0x9e3779b97f4a7c15} }

// next advances the stream (splitmix64 output function).
func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// chance reports a Bernoulli draw with probability p. The comparison
// uses the top 53 bits so the draw is exact for every representable p
// in [0,1].
func (r *rng) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	return float64(r.next()>>11)/(1<<53) < p
}
