package predict

import (
	"fmt"
	"sort"

	"iophases/internal/cluster"
	"iophases/internal/core"
	"iophases/internal/disksim"
	"iophases/internal/netsim"
	"iophases/internal/sweep"
	"iophases/internal/units"
)

// Variant is one hypothetical configuration in a what-if exploration —
// the design/selection use the paper targets with the SIMCAN simulation
// framework in its future work, available here natively because the
// whole substrate is already a simulator.
type Variant struct {
	Name string
	Spec cluster.Spec
}

// ExploreResult is a variant's estimated application I/O time.
type ExploreResult struct {
	Variant Variant
	Total   units.Duration
	Est     *Estimate
}

// Explore estimates the model's I/O time on every variant and returns the
// results sorted ascending by estimated time (best first). The
// application never runs on any variant — only its phases are replayed,
// so a wide sweep costs seconds. Variants estimate concurrently on the
// sweep pool (each replay owns a private simulation); results are
// order-preserving and then stably sorted, so the ranking is identical at
// any -j.
func Explore(m *core.Model, variants []Variant) ([]ExploreResult, error) {
	return ExploreOpts(m, variants, EstimateOptions{})
}

// ExploreOpts is Explore with explicit estimation options (faithful
// mixed-phase characterization).
func ExploreOpts(m *core.Model, variants []Variant, opts EstimateOptions) ([]ExploreResult, error) {
	type exploreRes struct {
		r   ExploreResult
		err error
	}
	results := sweep.Map(variants, func(_ int, v Variant) exploreRes {
		est, err := EstimateTimeOpts(m, v.Spec, opts)
		if err != nil {
			return exploreRes{err: fmt.Errorf("variant %s: %w", v.Name, err)}
		}
		return exploreRes{r: ExploreResult{Variant: v, Total: est.TotalCH, Est: est}}
	})
	out := make([]ExploreResult, 0, len(results))
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		out = append(out, r.r)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Total < out[j].Total })
	return out, nil
}

// StandardVariants derives a systematic what-if sweep from a base
// configuration: I/O-node counts, network generations, and device
// organizations — the questions §I of the paper opens with ("When is it
// convenient to use a parallel or distributed file system? … RAID or
// single disks?").
func StandardVariants(base cluster.Spec) []Variant {
	var out []Variant
	add := func(name string, mutate func(s *cluster.Spec)) {
		s := base
		s.Name = fmt.Sprintf("%s+%s", base.Name, name)
		mutate(&s)
		out = append(out, Variant{Name: name, Spec: s})
	}
	add("baseline", func(s *cluster.Spec) {})
	// Network generations.
	add("10GbE", func(s *cluster.Spec) { s.Net = netsim.Ethernet10G() })
	add("IB20G", func(s *cluster.Spec) { s.Net = netsim.Infiniband20G() })
	// I/O node scaling (striped filesystem over n servers).
	for _, n := range []int{2, 4, 8} {
		n := n
		add(fmt.Sprintf("%d-ion-striped", n), func(s *cluster.Spec) {
			s.Storage.Kind = "pvfs2"
			s.Storage.IONodes = n
			s.Storage.FileStripeCount = 0
		})
	}
	// Device organization.
	add("raid0", func(s *cluster.Spec) {
		if s.Storage.RAID != nil {
			r := *s.Storage.RAID
			r.Level = disksim.RAID0
			s.Storage.RAID = &r
		}
	})
	add("single-disk", func(s *cluster.Spec) {
		s.Storage.RAID = nil
		s.Storage.DisksPerNode = 1
	})
	return out
}
