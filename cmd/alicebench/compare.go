package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// rebaseline is printed whenever the sweep and the baseline disagree.
const rebaseline = "\nre-baseline procedure: if the change is meant to move these results,\n" +
	"run `go run ./cmd/alicebench -json -out BENCH.json`, review the diff,\n" +
	"and commit the new BENCH.json in the same change.\n"

// compareBench reruns the sweep into outPath and exits 1 unless every
// row equals the baseline's, field for field. A baseline of another
// schema fails before the sweep starts.
func compareBench(baselinePath, outPath string) {
	data, err := os.ReadFile(baselinePath)
	check(err)
	var hdr struct {
		SchemaVersion int `json:"schema_version"`
	}
	check(json.Unmarshal(data, &hdr))
	if hdr.SchemaVersion != benchSchemaVersion {
		fmt.Print(rebaseline)
		check(fmt.Errorf("%s has schema_version %d, this alicebench writes %d", baselinePath, hdr.SchemaVersion, benchSchemaVersion))
	}
	base, err := decodeReport(data)
	check(err)
	if abs(outPath) == abs(baselinePath) {
		// -out defaults to BENCH.json; never clobber the baseline being
		// compared against (a silent re-baseline would defeat the gate).
		outPath = "BENCH.current.json"
		fmt.Printf("note: writing current sweep to %s to preserve the baseline\n", outPath)
	}

	text, bad := compareReports(base, benchJSON(outPath))
	fmt.Print(text)
	if bad > 0 {
		check(fmt.Errorf("%d rows differ from %s", bad, baselinePath))
	}
	fmt.Println("every row equals", baselinePath)
}

// decodeReport decodes a BENCH.json strictly: a field this schema does
// not know is an error, so no field escapes the comparison.
func decodeReport(data []byte) (*benchReport, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r benchReport
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("decoding report: %w", err)
	}
	return &r, nil
}

// benchRow is one report row: its id and its JSON encoding.
type benchRow struct{ id, enc string }

// reportRows lists a report's rows by an id in the sweep's unit-id
// vocabulary, section plus subject (flow:des3:cfg1, impl:usb_phy:5x5,
// attack:xor2, fabattack:sasc:8x8, structural:gcd:4x4). Rows that share
// an id, like the two fabrics of one solution, are numbered in order
// from the second on (impl:usb_phy:5x5#2).
func reportRows(r *benchReport) []benchRow {
	var rows []benchRow
	add := func(v any, id ...string) {
		// Every row holds strings, integers, booleans and finite floats,
		// which always encode.
		enc, _ := json.Marshal(v)
		rows = append(rows, benchRow{strings.Join(id, ":"), string(enc)})
	}
	for _, d := range r.Designs {
		add(d, "flow", d.Design, d.Cfg)
	}
	for _, d := range r.Implement {
		add(d, "impl", d.Design, d.Fabric)
	}
	for _, d := range r.Attacks {
		add(d, "attack", d.Target)
	}
	for _, d := range r.FabricAttacks {
		add(d, "fabattack", d.Design, d.Fabric)
	}
	for _, d := range r.Structural {
		if d.Fabric == "" {
			add(d, "structural", d.Design)
		} else {
			add(d, "structural", d.Design, d.Fabric)
		}
	}
	seen := make(map[string]int)
	for i := range rows {
		seen[rows[i].id]++
		if n := seen[rows[i].id]; n > 1 {
			rows[i].id += fmt.Sprintf("#%d", n)
		}
	}
	return rows
}

// compareReports diffs two reports and returns the rendered result and
// the number of differences. Every field of every row must be equal:
// a CHANGED, MISSING or NEW row, or a different schema_version, each
// count as one. Floats compare bit for bit, since Go encodes a float64
// in the shortest form that reads back to the same bits. The toolchain
// and platform fields are provenance and are not compared. It is pure
// (no I/O, no exit), so the rule is unit-testable.
func compareReports(base, now *benchReport) (string, int) {
	var b strings.Builder
	bad := 0
	if base.SchemaVersion != now.SchemaVersion {
		fmt.Fprintf(&b, "SCHEMA  baseline %d, current %d\n", base.SchemaVersion, now.SchemaVersion)
		bad++
	}
	nowRows := reportRows(now)
	unmatched := make(map[string]string, len(nowRows))
	for _, r := range nowRows {
		unmatched[r.id] = r.enc
	}
	for _, r := range reportRows(base) {
		enc, ok := unmatched[r.id]
		delete(unmatched, r.id)
		switch {
		case !ok:
			fmt.Fprintf(&b, "MISSING %s\n  baseline %s\n", r.id, r.enc)
			bad++
		case enc != r.enc:
			fmt.Fprintf(&b, "CHANGED %s\n  baseline %s\n  current  %s\n", r.id, r.enc, enc)
			bad++
		}
	}
	for _, r := range nowRows {
		if _, ok := unmatched[r.id]; ok {
			fmt.Fprintf(&b, "NEW     %s\n  current  %s\n", r.id, r.enc)
			bad++
		}
	}
	if bad > 0 {
		b.WriteString(rebaseline)
	}
	return b.String(), bad
}

// abs best-effort-normalizes a path for the baseline-clobber check.
func abs(p string) string {
	a, err := filepath.Abs(p)
	if err != nil {
		return p
	}
	return a
}
