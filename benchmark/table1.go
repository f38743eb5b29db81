package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/coherence"
	"repro/internal/exp"
)

// referenceNote goes out with every report: the repository holds one
// numeric reference from the paper and no more.
const referenceNote = "Table 1 (hop counts) is the only numeric reference from the paper this repository holds; " +
	"the Fig. 4-6 values (sim_cpi, noc_b_per_instr, data_stall_pct, sim.cycles, noc.bytes) are unvalidated and carry no error figure."

//go:embed paper_table1.json
var paperTable1JSON []byte

// paperRow is one request of the paper's Table 1.
type paperRow struct {
	Hops     uint64 `json:"hops"`
	Blocking bool   `json:"blocking"`
	// Messages, when non-zero, is the paper's transfer count for the
	// whole transaction.
	Messages uint64 `json:"messages"`
}

// checkTable1 measures exp.Table1 for both of the paper's protocols and
// compares every row with the fixture (paperTable1JSON outside tests).
func checkTable1(fixture []byte) error {
	var paper map[string]json.RawMessage
	if err := json.Unmarshal(fixture, &paper); err != nil {
		return fmt.Errorf("paper_table1.json: %w", err)
	}
	for _, proto := range []coherence.Protocol{coherence.WTI, coherence.WBMESI} {
		var want map[string]paperRow
		if err := json.Unmarshal(paper[proto.String()], &want); err != nil {
			return fmt.Errorf("paper_table1.json: %v: %w", proto, err)
		}
		tb, err := exp.Table1(proto)
		if err != nil {
			return err
		}
		if tb.NumRows() != len(want) {
			return fmt.Errorf("table 1 %v: %d rows measured, %d in the paper", proto, tb.NumRows(), len(want))
		}
		// Columns: action, messages, path hops, blocking cycles.
		for _, row := range tb.Rows() {
			w, ok := want[row[0]]
			if !ok {
				return fmt.Errorf("table 1 %v: row %q is not in the paper's table", proto, row[0])
			}
			msgs, err1 := strconv.ParseUint(row[1], 10, 64)
			hops, err2 := strconv.ParseUint(row[2], 10, 64)
			blocking, err3 := strconv.ParseUint(row[3], 10, 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return fmt.Errorf("table 1 %v: row %q is not numeric: %v", proto, row[0], row[1:])
			}
			if hops != w.Hops || (blocking > 0) != w.Blocking || (w.Messages != 0 && msgs != w.Messages) {
				return fmt.Errorf("table 1 %v: %q measured %d messages, %d hops, %d blocking cycles; paper has %+v",
					proto, row[0], msgs, hops, blocking, w)
			}
		}
	}
	return nil
}
