// Package prof is a lint fixture: the one repro/internal package out
// of the determinism scope besides lint, since measuring the host is
// its job.
package prof

import "time"

func elapsed(start time.Time) time.Duration {
	return time.Since(start) // allowed: host measurement
}
