package ndp_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"abndp/internal/apps"
	"abndp/internal/config"
	"abndp/internal/ndp"
)

var update = flag.Bool("update", false, "regenerate testdata/golden_hashes.json from the current tree")

const goldenHashFile = "testdata/golden_hashes.json"

// goldenPlans are the fault plans of the golden ResultHash table. The
// kill plans install a dead-unit mask at construction, so placement runs
// with dead-camp filtering; "killed" fires mid-run at the small test size,
// the others only arm the fault layer there.
var goldenPlans = []struct{ name, spec string }{
	{"nofault", ""},
	{"kill", "kill:1@20000;retry:16"},
	{"slow", "slow:2:1.5@1000"},
	{"faultsdoc", "slow:9:4;slow:35:4;slow:70:4;slow:104:4;kill:70@25000;kill:9@32000"},
	{"killed", "kill:70@2500;kill:9@3000"},
}

func goldenKey(app string, d config.Design, plan string) string {
	return app + "/" + d.String() + "/" + plan
}

// TestGoldenResultHashes pins the ResultHash of every Figure-6 workload ×
// NDP design × fault plan at the small test size to a committed table, so
// engine changes are checked against fixed values rather than against a
// second live code path that could drift with them. Regenerate with
//
//	go test ./internal/ndp -run TestGoldenResultHashes -update
//
// only when a change is meant to alter simulated results.
func TestGoldenResultHashes(t *testing.T) {
	type cell struct {
		app    string
		design config.Design
		plan   string
		spec   string
	}
	var cells []cell
	for _, app := range apps.Names {
		for _, d := range config.NDPDesigns {
			for _, p := range goldenPlans {
				cells = append(cells, cell{app, d, p.name, p.spec})
			}
		}
	}
	got := make([]string, len(cells))
	for i, c := range cells {
		got[i] = fmt.Sprintf("%016x", ndp.ResultHash(faultRun(t, c.design, c.app, c.spec)))
	}

	if *update {
		table := make(map[string]string, len(cells))
		for i, c := range cells {
			table[goldenKey(c.app, c.design, c.plan)] = got[i]
		}
		b, err := json.MarshalIndent(table, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenHashFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d hashes to %s", len(table), goldenHashFile)
		return
	}

	b, err := os.ReadFile(goldenHashFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cells) {
		t.Errorf("golden table has %d entries, the test covers %d", len(want), len(cells))
	}
	for i, c := range cells {
		k := goldenKey(c.app, c.design, c.plan)
		if w, ok := want[k]; !ok {
			t.Errorf("%s: missing from the golden table", k)
		} else if got[i] != w {
			t.Errorf("%s: ResultHash %s, golden %s", k, got[i], w)
		}
	}
}
