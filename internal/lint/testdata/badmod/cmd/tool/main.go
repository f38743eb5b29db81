// Command tool is a lint fixture: outside the determinism scope, the
// wall clock, global rand and map ranges are fine.
package main

import (
	"fmt"
	"math/rand"
	"time"
)

func main() {
	fmt.Println(time.Now(), rand.Int())
	m := map[int]int{1: 2}
	for k := range m {
		fmt.Println(k)
	}
}
