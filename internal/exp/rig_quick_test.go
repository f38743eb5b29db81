//go:build !soak

package exp

// The go test budget of the random-machine rig (rig_test.go).
const rigSeed, rigDraws = 1, 100
