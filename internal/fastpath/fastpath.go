// Package fastpath computes IOR runs and phase replays in closed form when
// the workload provably cannot contend: one rank, one storage target, no
// fault schedule. Under those conditions the discrete-event simulation
// degenerates into a single chain of operations (plus at most one
// background flusher with fully determined completion times), so the
// virtual clock can be advanced arithmetically — same formulas, same
// stateful head/cache bookkeeping, same integer rounding — without building
// an engine, spawning coroutines or scheduling events.
//
// Exactness is structural, not approximate: the walkers call the very
// functions the simulated devices call (netsim.LinkParams.PathCost,
// disksim.HeadClock/ArrayClock, disksim.CacheLedger/RecentIndex,
// ior.Params.Offset/ChunkOrder), so a formula change in a device is
// automatically a formula change here. Whenever the walker meets a
// situation whose event interleaving it cannot reproduce bit-exactly — a
// virtual-time tie with the flusher, a cache-pressure stall, a read racing
// a flush — it bails out and the caller falls back to the full DES.
// Admission alone selects the path. The tests cross-check the two —
// fastpath_test.go for IOR runs, the replay package's tests for phase
// replays — over a corpus and generated inputs on every built-in
// configuration.
//
// # Sanctioned cost seams
//
// "Same formulas" is machine-enforced: the iovet fpfidelity analyzer
// (DESIGN.md §15) forbids this package from manufacturing costs locally.
// Every units.Duration/units.Bandwidth here must originate from the
// shared seams the DES itself uses —
//
//   - netsim.LinkParams.PathCost: network transfer cost
//   - disksim.HeadClock/ArrayClock OpTime: device service times
//   - fsim meta/stripe accounting (MetaCost, MaxServerRequest, striping)
//   - ior.Params geometry (Offset/ChunkOrder/request sizes)
//   - units.TransferTime / units.BandwidthOf: the shared conversion pair
//
// — and may only be aggregated (summed, compared, subtracted). Raw
// conversions (units.Duration(n)), scaling arithmetic (d*2, b/2),
// constructor calls (units.MBps, units.FromSeconds) and raw cost
// constants (units.Millisecond) are build failures, so a re-derived cost
// expression cannot silently drift from the simulation it must match
// bit-exactly.
package fastpath

import "iophases/internal/obs"

// Counters live on the default registry (not the Hot gate) so hits and
// bailouts are observable without enabling run telemetry — the quick-suite
// acceptance check reads them directly.
var (
	cHits     = obs.Default().Counter("fastpath/hits")
	cBailouts = obs.Default().Counter("fastpath/bailouts")
)

// Stats reports cumulative fast-path outcomes: runs answered analytically
// and runs that bailed to the DES (statically or dynamically).
func Stats() (hits, bailouts int64) {
	return cHits.Value(), cBailouts.Value()
}
