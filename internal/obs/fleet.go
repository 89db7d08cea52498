package obs

import "io"

// FleetRecord is one control interval's fleet-aggregate flight-recorder
// entry: the shared budget, the allocation the policy has outstanding, and
// the fleet-wide sensor aggregates. Per-board detail lives in the per-board
// Record traces; this record is the coordination layer's own view, at the
// same cadence. Like Record it is a flat value struct so the ring can store
// it without per-interval allocation, and everything it carries is
// simulation-derived, so fleet JSONL traces are byte-identical at any
// parallelism.
type FleetRecord struct {
	// Step is the 0-based control interval index within the fleet run.
	Step int
	// TimeS is the simulated time at the end of the interval, in seconds.
	TimeS float64

	// BudgetW is the fleet-wide power budget in watts.
	BudgetW float64
	// AllocW is the sum of the per-board power caps outstanding this
	// interval, in watts. The conservation invariant is AllocW ≤ BudgetW on
	// every record.
	AllocW float64
	// CapMinW and CapMaxW are the smallest and largest per-board caps among
	// live boards (0 when no board is live).
	CapMinW, CapMaxW float64

	// PowerW is the sum of the boards' sensed total power draws, in watts.
	PowerW float64
	// BIPS is the sum of the boards' instruction throughputs (billions of
	// instructions per second).
	BIPS float64

	// Live is the number of boards still running their workload.
	Live int
	// Throttled is the number of boards whose budget governor was actively
	// enforcing its cap this interval.
	Throttled int
	// Done is the number of boards whose workload has finished.
	Done int

	// Realloc reports that the budget policy ran at the start of this
	// interval (reallocation points recur every FleetOptions.ReallocEvery
	// intervals). On per-node records it reports that this node's own
	// coordinator fired — higher tree levels fire on slower cadences.
	Realloc bool

	// Node is the coordinator tree path this record aggregates ("" for the
	// root, the whole-fleet view; e.g. "3/7" for rack 7 of row 3). Fleet
	// runs emit one record per tree node per interval, the root first. The
	// "node" field is only emitted when non-empty, so a one-level tree's
	// trace is byte-identical to the pre-tree schema.
	// For a non-root node, BudgetW is the node's currently allocated budget
	// and every aggregate spans only the node's board range.
	Node string
}

// fleetSchema is the fleet-record line schema, in emission order, sharing
// the exporter/validator machinery with the per-board schema.
var fleetSchema = []fieldSpec[FleetRecord]{
	intF("step", func(r *FleetRecord) int { return r.Step }),
	floatF("t_s", func(r *FleetRecord) float64 { return r.TimeS }),
	strFOpt("node", func(r *FleetRecord) string { return r.Node }),
	floatF("budget_w", func(r *FleetRecord) float64 { return r.BudgetW }),
	floatF("alloc_w", func(r *FleetRecord) float64 { return r.AllocW }),
	floatF("cap_min_w", func(r *FleetRecord) float64 { return r.CapMinW }),
	floatF("cap_max_w", func(r *FleetRecord) float64 { return r.CapMaxW }),
	floatF("power_w", func(r *FleetRecord) float64 { return r.PowerW }),
	floatF("bips", func(r *FleetRecord) float64 { return r.BIPS }),
	intF("live", func(r *FleetRecord) int { return r.Live }),
	intF("throttled", func(r *FleetRecord) int { return r.Throttled }),
	intF("done", func(r *FleetRecord) int { return r.Done }),
	boolF("realloc", func(r *FleetRecord) bool { return r.Realloc }),
}

// FleetRecorder is a fixed-capacity ring buffer of FleetRecords, with the
// same contract as Recorder: all memory up front, Add never allocates, one
// recorder per fleet run, not safe for concurrent use (the fleet runner adds
// from its single coordination goroutine).
type FleetRecorder struct {
	ring[FleetRecord]
}

// NewFleetRecorder returns a recorder retaining the last capacity records
// (DefaultCapacity when capacity <= 0).
func NewFleetRecorder(capacity int) *FleetRecorder {
	return &FleetRecorder{ring: newRing[FleetRecord](capacity)}
}

// WriteJSONL writes the retained fleet records as one JSON object per line,
// fields in fleet-schema order, with the same determinism guarantees as
// Recorder.WriteJSONL.
func (r *FleetRecorder) WriteJSONL(w io.Writer) error {
	return writeJSONLTable(w, fleetSchema, r.Len(), r.At, false)
}

// ValidateFleetJSONL checks a JSONL stream against the fleet-record schema,
// returning the number of valid records and the first violation found. Fleet
// traces are written as <stem>.fleet.jsonl so tooling can dispatch between
// the two schemas by filename.
func ValidateFleetJSONL(rd io.Reader) (int, error) {
	return validateJSONLTable(rd, fleetSchema)
}
