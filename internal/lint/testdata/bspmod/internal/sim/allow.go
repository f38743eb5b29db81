package sim

// This file exercises the //lint:allow suppression directive and its
// hygiene findings.

var allowed int

func suppressed(m map[int]int) {
	//lint:allow maprange — the sum is order-independent
	for _, v := range m {
		allowed += v
	}
}

func reasonless() {
	//lint:allow maprange
	_ = allowed
}

func typoed() {
	//lint:allow nosuchanalyzer — the analyzer name is wrong on purpose
	_ = allowed
}
