package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
)

// The committed references: every simulated scalar of the default seed's
// paper-sweep pass and fleet-rack run. Regenerate them with
//
//	perfbench --workload paper-sweep --seconds 1 --write-reference reference/paper-sweep.json
//	perfbench --workload fleet-rack --seconds 1 --write-reference reference/fleet-rack.json
//
// only when a change is meant to alter what the controllers do.
//
//go:embed reference/*.json
var referenceFS embed.FS

// paperRef maps a cell key to its [E×D, time, energy].
type paperRef struct {
	Seed  int64                 `json:"seed"`
	Cells map[string][3]float64 `json:"cells"`
}

// fleetRef holds a fleet run's scalars.
type fleetRef struct {
	Seed      int64   `json:"seed"`
	Topology  string  `json:"topology"`
	EDP       float64 `json:"edp_js"`
	MakespanS float64 `json:"makespan_s"`
	EnergyJ   float64 `json:"energy_j"`
}

func loadReference(name string, v any) error {
	raw, err := referenceFS.ReadFile("reference/" + name)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}

func paperReference(cells []cell, res []cellResult) paperRef {
	ref := paperRef{Seed: defaultSeed, Cells: map[string][3]float64{}}
	for i, c := range cells {
		ref.Cells[c.key()] = [3]float64{res[i].ExD, res[i].TimeS, res[i].EnergyJ}
	}
	return ref
}

// checkPaperReference compares a pass of the default seed against the
// committed reference, cell by cell and bit for bit.
func checkPaperReference(rep *report, seed int64, cells []cell, res []cellResult) {
	if seed != defaultSeed {
		return
	}
	var ref paperRef
	if err := loadReference("paper-sweep.json", &ref); err != nil {
		rep.verify(false, "paper-sweep reference: %v", err)
		return
	}
	for i, c := range cells {
		want, ok := ref.Cells[c.key()]
		got := [3]float64{res[i].ExD, res[i].TimeS, res[i].EnergyJ}
		rep.verify(ok && got == want, "%s: got E×D/time/energy %v, reference %v", c.key(), got, want)
	}
}

// checkFleetReference compares a fleet run of the default seed against the
// committed reference.
func checkFleetReference(rep *report, seed int64, got fleetRef) {
	if seed != defaultSeed {
		return
	}
	var ref fleetRef
	if err := loadReference("fleet-rack.json", &ref); err != nil {
		rep.verify(false, "fleet-rack reference: %v", err)
		return
	}
	if ref.Topology != got.Topology {
		return // a smoke-size fleet has no committed reference
	}
	rep.verify(got == ref, "fleet: got %+v, reference %+v", got, ref)
}

// writeReference stores a run's reference document.
func writeReference(path string, v any) error {
	if v == nil {
		return fmt.Errorf("this run produces no reference")
	}
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
