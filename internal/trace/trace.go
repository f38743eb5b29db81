// Package trace provides a synthetic-reference front-end for the
// memory hierarchy: instead of interpreting SR32 programs, trace CPUs
// replay generated load/store streams with configurable think time.
// It is used to stress the protocols with access patterns the SPLASH
// kernels do not produce, and to build the best-case/worst-case
// comparison the paper leaves as future work. The named streams are
// exp's stream benches.
package trace

import "math/rand"

// Op is one memory reference.
type Op struct {
	Store bool
	Addr  uint32
	Data  uint32
}

// Generator produces a reference stream. Implementations must be
// deterministic for a given construction (seeded).
type Generator interface {
	// Next returns the i-th operation of the stream for the given CPU.
	Next() Op
}

// UniformParams configures a uniformly random reference stream over a
// region.
type UniformParams struct {
	Base      uint32
	Size      uint32 // bytes, word multiple
	StoreFrac float64
	Seed      int64
}

// Uniform generates independent uniformly distributed word accesses.
type Uniform struct {
	p   UniformParams
	rng *rand.Rand
}

// NewUniform builds the generator.
func NewUniform(p UniformParams) *Uniform {
	return &Uniform{p: p, rng: rand.New(rand.NewSource(p.Seed))}
}

// Next implements Generator.
func (u *Uniform) Next() Op {
	words := u.p.Size / 4
	addr := u.p.Base + 4*uint32(u.rng.Intn(int(words)))
	return Op{
		Store: u.rng.Float64() < u.p.StoreFrac,
		Addr:  addr,
		Data:  u.rng.Uint32(),
	}
}

// HotSpotParams configures a private stream with a fraction of
// references hitting one shared hot block — a classic contention
// pattern.
type HotSpotParams struct {
	PrivateBase uint32
	PrivateSize uint32
	HotBase     uint32
	HotSize     uint32
	HotFrac     float64
	StoreFrac   float64
	Seed        int64
}

// HotSpot generates the private+hot-spot mix.
type HotSpot struct {
	p   HotSpotParams
	rng *rand.Rand
}

// NewHotSpot builds the generator.
func NewHotSpot(p HotSpotParams) *HotSpot {
	return &HotSpot{p: p, rng: rand.New(rand.NewSource(p.Seed))}
}

// Next implements Generator.
func (h *HotSpot) Next() Op {
	var base, size uint32
	if h.rng.Float64() < h.p.HotFrac {
		base, size = h.p.HotBase, h.p.HotSize
	} else {
		base, size = h.p.PrivateBase, h.p.PrivateSize
	}
	addr := base + 4*uint32(h.rng.Intn(int(size/4)))
	return Op{Store: h.rng.Float64() < h.p.StoreFrac, Addr: addr, Data: h.rng.Uint32()}
}

// WriteStream generates a write-once streaming pattern: word stores
// marching through a buffer with a configurable stride, never read
// back. With a stride of one block it is the write-through best case:
// WTI posts one word per block without allocating, while a write-back
// cache must read-allocate the whole block and write it back later,
// moving 64 bytes of payload for 4 bytes of useful data. (With a dense
// 4-byte stride the balance flips: per-word message overhead costs WTI
// more than WB's two block moves — both regimes are exercised by the
// benchmarks.)
type WriteStream struct {
	base   uint32
	size   uint32
	stride uint32
	pos    uint32
}

// NewWriteStream builds the generator; stride must be a positive
// multiple of 4.
func NewWriteStream(base, size, stride uint32) *WriteStream {
	if stride == 0 || stride%4 != 0 {
		panic("trace: stride must be a positive word multiple")
	}
	return &WriteStream{base: base, size: size, stride: stride}
}

// Next implements Generator.
func (w *WriteStream) Next() Op {
	op := Op{Store: true, Addr: w.base + w.pos, Data: w.pos}
	w.pos = (w.pos + w.stride) % w.size
	return op
}

// PrivateRMW generates repeated read-modify-write sweeps over a small
// private working set — the write-back best case: after the first
// sweep every access hits in M state, while WTI sends every store
// across the NoC forever.
type PrivateRMW struct {
	base    uint32
	size    uint32
	pos     uint32
	pending bool // next op is the write half
}

// NewPrivateRMW builds the generator.
func NewPrivateRMW(base, size uint32) *PrivateRMW {
	return &PrivateRMW{base: base, size: size}
}

// Next implements Generator.
func (p *PrivateRMW) Next() Op {
	addr := p.base + p.pos
	if !p.pending {
		p.pending = true
		return Op{Store: false, Addr: addr}
	}
	p.pending = false
	p.pos = (p.pos + 4) % p.size
	return Op{Store: true, Addr: addr, Data: p.pos}
}
