// Package fault is a lint fixture: a package the determinism scope
// reaches by rule (every repro/internal package), not by being listed.
package fault

import "time"

func seedFromClock() int64 {
	return time.Now().UnixNano() // want walltime
}
