//go:build soak

package exp

// The soak tier's tail of the random-machine rig (rig_test.go): fresh
// seeds, ten times the draws. Run it with
//
//	go test -tags soak ./internal/exp/ -run TestRandomMachines -v
const rigSeed, rigDraws = 1000, 2000
