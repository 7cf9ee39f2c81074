package bench

import (
	"io"
	"testing"

	"abndp/internal/apps"
	"abndp/internal/ckpt"
	"abndp/internal/config"
	"abndp/internal/ndp"
)

// BenchmarkWarmPoint measures one warm sweep point: checkpoint store
// primed, input cache warm, tag arrays recycled — the steady state the
// warm-sweep acceptance ratio divides by. Profile this to find what the
// checkpoint path still pays for.
func BenchmarkWarmPoint(b *testing.B) {
	r := NewRunner(io.Discard)
	p := r.params(warmSweepApp)
	d := config.DesignO
	cfg := r.base
	cfg.HybridAlpha = 2

	store := ckpt.NewStore(0)
	apps.EnableInputCache(true)
	defer apps.EnableInputCache(false)
	newApp := func() ndp.App {
		a, err := apps.New(warmSweepApp, p)
		if err != nil {
			b.Fatal(err)
		}
		return a
	}
	prime := func(c config.Config) {
		sys := ndp.NewSystem(c, d)
		sys.SetCheckpoint(store.Shard(warmSweepApp + "|" + d.String() + "|" + c.PrefixKey()))
		sys.Run(newApp())
	}
	prime(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cfg
		c.HybridAlpha = float64(1 + i%6)
		prime(c)
	}
}
