package fault

import (
	"reflect"
	"strings"
	"testing"
)

func TestParsePlanEmpty(t *testing.T) {
	for _, spec := range []string{"", "   "} {
		p, err := ParsePlan(spec)
		if err != nil || p != nil {
			t.Fatalf("ParsePlan(%q) = %v, %v; want nil, nil", spec, p, err)
		}
		if !p.Empty() {
			t.Fatalf("nil plan must report Empty")
		}
	}
}

func TestParsePlanValid(t *testing.T) {
	cases := []struct {
		spec string
		want Plan
	}{
		{
			spec: "drop=1e-4,delay=1e-3:8,seed=42",
			want: Plan{
				Seed:  42,
				Drop:  []DropSpec{{Rate: 1e-4, Scope: LinkScope{Wildcard, Wildcard}}},
				Delay: []DelaySpec{{Rate: 1e-3, Cycles: 8, Scope: LinkScope{Wildcard, Wildcard}}},
			},
		},
		{
			spec: "dup=0.5@3>*",
			want: Plan{
				Seed: 1,
				Dup:  []DropSpec{{Rate: 0.5, Scope: LinkScope{Src: 3, Dst: Wildcard}}},
			},
		},
		{
			spec: "drop=1@*>2,drop=0.25",
			want: Plan{
				Seed: 1,
				Drop: []DropSpec{
					{Rate: 1, Scope: LinkScope{Src: Wildcard, Dst: 2}},
					{Rate: 0.25, Scope: LinkScope{Wildcard, Wildcard}},
				},
			},
		},
		{
			spec: "bankstall=0.1:20@1,bankstall=0.2:5",
			want: Plan{
				Seed: 1,
				BankStall: []StallSpec{
					{Rate: 0.1, Window: 20, Bank: 1},
					{Rate: 0.2, Window: 5, Bank: Wildcard},
				},
			},
		},
		{
			spec: " delay=0:1 , seed=0 ",
			want: Plan{
				Seed:  0,
				Delay: []DelaySpec{{Rate: 0, Cycles: 1, Scope: LinkScope{Wildcard, Wildcard}}},
			},
		},
	}
	for _, c := range cases {
		got, err := ParsePlan(c.spec)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", c.spec, err)
		}
		if !reflect.DeepEqual(*got, c.want) {
			t.Errorf("ParsePlan(%q) = %+v; want %+v", c.spec, *got, c.want)
		}
	}
}

func TestParsePlanErrors(t *testing.T) {
	cases := []string{
		"bogus=1",             // unknown directive
		"drop",                // not key=value
		"drop=1.5",            // rate out of range
		"drop=-0.1",           // negative rate
		"drop=NaN",            // NaN rate
		"drop=x",              // non-numeric rate
		"drop=0.1@3",          // scope missing '>'
		"drop=0.1@a>b",        // non-numeric scope endpoints
		"drop=0.1@-2>*",       // negative scope endpoint
		"delay=0.1",           // missing cycle count
		"delay=0.1:0",         // zero cycles
		"delay=0.1:-3",        // negative cycles
		"delay=0.1:x",         // non-numeric cycles
		"bankstall=0.1",       // missing window
		"bankstall=0.1:4@-1",  // negative bank index
		"bankstall=0.1:4@1>2", // link scope on a bank directive
		"seed=-1",             // negative seed
		"seed=abc",            // non-numeric seed
		"seed=1,seed=2",       // duplicate seed
		"drop=0.1,,seed=2",    // empty directive
		"drop=0.1,",           // trailing comma
	}
	for _, spec := range cases {
		if p, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) = %+v; want error", spec, p)
		}
	}
}

// TestPlanStringRoundTrip: String() is the replay spec embedded in
// liveness diagnostics, so it must parse back to the identical plan.
func TestPlanStringRoundTrip(t *testing.T) {
	specs := []string{
		"drop=1e-4,delay=1e-3:8,seed=42",
		"drop=0.5@3>*,dup=1@*>2,bankstall=0.25:16@0,seed=7",
		"dup=0.125,seed=1",
		"bankstall=1:3,seed=99",
	}
	for _, spec := range specs {
		p, err := ParsePlan(spec)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", spec, err)
		}
		back, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("ParsePlan(%q) of re-rendered %q: %v", p.String(), spec, err)
		}
		if !reflect.DeepEqual(p, back) {
			t.Errorf("round trip of %q: %+v != %+v", spec, p, back)
		}
	}
	var nilPlan *Plan
	if nilPlan.String() != "" {
		t.Errorf("nil plan String() = %q; want empty", nilPlan.String())
	}
}

func TestPlanFirstMatchWins(t *testing.T) {
	p, err := ParsePlan("drop=0.75@2>5,drop=0.25,delay=1:9@*>5,delay=0.5:3")
	if err != nil {
		t.Fatal(err)
	}
	if r := firstRate(p.Drop, 2, 5); r != 0.75 {
		t.Errorf("firstRate(Drop, 2, 5) = %v; want scoped 0.75", r)
	}
	if r := firstRate(p.Drop, 1, 5); r != 0.25 {
		t.Errorf("firstRate(Drop, 1, 5) = %v; want global 0.25", r)
	}
	if d := p.delayFor(0, 5); d == nil || d.Cycles != 9 {
		t.Errorf("delayFor(0,5) = %+v; want the scoped 9-cycle spec", d)
	}
	if d := p.delayFor(0, 1); d == nil || d.Cycles != 3 {
		t.Errorf("delayFor(0,1) = %+v; want the global 3-cycle spec", d)
	}
	if r := firstRate(p.Dup, 0, 0); r != 0 {
		t.Errorf("firstRate(Dup) with no dup directive = %v; want 0", r)
	}

	ps, err := ParsePlan("bankstall=0.5:4@2,bankstall=0.125:8")
	if err != nil {
		t.Fatal(err)
	}
	if s := ps.stallFor(2); s == nil || s.Window != 4 {
		t.Errorf("stallFor(2) = %+v; want the scoped 4-cycle spec", s)
	}
	if s := ps.stallFor(0); s == nil || s.Window != 8 {
		t.Errorf("stallFor(0) = %+v; want the global 8-cycle spec", s)
	}
}

// FuzzParsePlan checks the parser never panics and that every accepted
// spec survives a String() round trip — the property the replay
// diagnostics depend on.
func FuzzParsePlan(f *testing.F) {
	for _, seed := range []string{
		"",
		"drop=1e-4,delay=1e-3:8,seed=42",
		"dup=0.5@3>*,bankstall=0.25:16@0",
		"drop=0.1,,seed",
		"delay=0.1:0@*>x",
		"seed=18446744073709551615",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(spec)
		if err != nil {
			return
		}
		if p == nil {
			if strings.TrimSpace(spec) != "" {
				t.Fatalf("ParsePlan(%q) = nil plan without error for non-blank spec", spec)
			}
			return
		}
		back, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("re-parse of String() %q (from %q): %v", p.String(), spec, err)
		}
		if !reflect.DeepEqual(p, back) {
			t.Fatalf("round trip of %q via %q: %+v != %+v", spec, p.String(), p, back)
		}
	})
}

func TestRNGDeterminismAndStreams(t *testing.T) {
	a, b := streamRNG(42, streamDrop), streamRNG(42, streamDrop)
	for i := 0; i < 64; i++ {
		if a.next() != b.next() {
			t.Fatal("identical (seed, stream) pairs must produce identical sequences")
		}
	}
	c, d := streamRNG(42, streamDrop), streamRNG(42, streamDelay)
	same := 0
	for i := 0; i < 64; i++ {
		if c.next() == d.next() {
			same++
		}
	}
	if same != 0 {
		t.Fatalf("streams collide in %d/64 draws; want decorrelated streams", same)
	}
	r := streamRNG(7, 0)
	if r.chance(0) {
		t.Error("chance(0) must never fire")
	}
	if !r.chance(1) {
		t.Error("chance(1) must always fire")
	}
}
