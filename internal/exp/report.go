// The merged report schema of a resource-sampled run. The deterministic
// Result JSON (core.ResultJSON) never carries host-side measurements —
// its bytes are pinned identical whether or not anything observes the
// run — so the merge happens here, one layer up, where wall-clock data
// is allowed to exist.
package exp

import (
	"encoding/json"
	"io"

	"repro/internal/core"
	"repro/internal/obs/resource"
)

// Report is the export schema of a measured run: the flattened
// deterministic result plus, when the run was resource-sampled, the
// off-engine process telemetry block. The resources field is additive
// and optional, so a Report without sampling marshals to exactly the
// fields of core.ResultJSON.
type Report struct {
	core.ResultJSON
	// Resources is the process resource summary sampled while the run
	// executed (omitted when sampling was off).
	Resources *resource.Summary `json:"resources,omitempty"`
}

// NewReport merges a run result with its resource summary. A nil or
// empty (Samples == 0) summary yields a report without the block.
func NewReport(res *core.Result, sum *resource.Summary) Report {
	rep := Report{ResultJSON: res.JSON()}
	if sum != nil && sum.Samples > 0 {
		rep.Resources = sum
	}
	return rep
}

// Write emits the report as indented JSON, mirroring Result.WriteJSON.
func (r Report) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
