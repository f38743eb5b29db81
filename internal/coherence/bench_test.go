package coherence

import "testing"

// protocol fast paths: hit latency dominates simulation speed.
func BenchmarkWTILoadHit(b *testing.B) {
	r := newRig(b, WTI, 1, 1)
	r.load(0, rigBase)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := r.DCaches[0].Load(r.now, rigBase); !ok {
			b.Fatal("hit missed")
		}
	}
}

func BenchmarkMESIStoreHitM(b *testing.B) {
	r := newRig(b, WBMESI, 1, 1)
	r.store(0, rigBase, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !r.DCaches[0].Store(r.now, rigBase, uint32(i)) {
			b.Fatal("M hit stalled")
		}
	}
}

func BenchmarkWTIPostedStoreRoundTrip(b *testing.B) {
	r := newRig(b, WTI, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.store(0, rigBase+uint32(i%256)*4, uint32(i))
	}
	r.settle()
}
