package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sync"

	"abndp"
)

// golden.json maps every pool input of every workload (see ops.go) to the
// ResultHash the serial engine produces for it, as %016x. It is generated
// by -regen-golden and checked by every op.
//
//go:embed golden.json
var goldenJSON []byte

type goldenTable map[string]string

func loadGolden() (goldenTable, error) {
	var g goldenTable
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// check reports whether hash is the golden hash of key. A key missing
// from the table fails: every op's input comes from the pools the table
// covers.
func (g goldenTable) check(key, hash string) error {
	want, ok := g[key]
	switch {
	case !ok:
		return fmt.Errorf("%s: no golden hash", key)
	case want != hash:
		return fmt.Errorf("%s: result hash %s, golden %s", key, hash, want)
	}
	return nil
}

func hashString(h uint64) string { return fmt.Sprintf("%016x", h) }

// goldenJob is one entry to (re)compute.
type goldenJob struct {
	key    string
	app    string
	design abndp.Design
	cfg    abndp.Config
	params abndp.Params
}

// goldenJobs lists every pool input of the three workloads.
func goldenJobs() []goldenJob {
	var jobs []goldenJob
	for _, d := range []struct {
		name   string
		design abndp.Design
	}{{"sim-o", abndp.DesignO}, {"sim-b", abndp.DesignB}} {
		for _, app := range simApps {
			for in := 0; in <= simPool; in++ {
				op := simOp{App: app, Input: in}
				jobs = append(jobs, goldenJob{op.goldenKey(d.name), app, d.design, abndp.DefaultConfig(), simParams(app, in)})
			}
		}
	}
	for in := 0; in < fleetPool+fleetWarm; in++ {
		cold := fleetOp{Class: classCold, Input: in}
		jobs = append(jobs, goldenJob{cold.goldenKey(), fleetApp, abndp.DesignO, abndp.DefaultConfig(), fleetParams(in)})
		cfg := abndp.DefaultConfig()
		cfg.HybridAlpha = variantAlpha(in)
		variant := fleetOp{Class: classVariant, Input: in}
		jobs = append(jobs, goldenJob{variant.goldenKey(), fleetApp, abndp.DesignO, cfg, fleetParams(in)})
	}
	return jobs
}

// regenGolden recomputes the table with abndp.Run on workers goroutines
// and writes it to path.
func regenGolden(path string, workers int) error {
	jobs := goldenJobs()
	out := make(goldenTable, len(jobs))
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	next := make(chan goldenJob)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				res, err := abndp.Run(j.app, j.design, j.cfg, j.params)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("%s: %w", j.key, err)
				} else if err == nil {
					out[j.key] = hashString(abndp.ResultHash(res))
				}
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	raw, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// digest folds a sequence of (key, hash) pairs into one FNV-1a value, so
// two runs of the same seed can show that their simulated output agrees
// without listing every op.
type digest struct {
	pairs []string
}

func (d *digest) add(key, hash string) { d.pairs = append(d.pairs, key+"="+hash) }

// sum returns the digest of the pairs in the order they were added.
func (d *digest) sum() string {
	h := fnv.New64a()
	for _, p := range d.pairs {
		fmt.Fprintln(h, p)
	}
	return hashString(h.Sum64())
}
