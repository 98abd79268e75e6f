// Command femtosim runs one femtocell-CR video-streaming simulation and
// prints the per-user and average video quality, collision rate, and
// optional diagnostics.
//
// Examples:
//
//	femtosim -scenario single -scheme proposed -runs 10 -gops 20
//	femtosim -scenario interfering -scheme h2 -eta 0.5
//	femtosim -scenario single -dualtrace 600
//	femtosim -scenario metro -metro-fbs 400 -metro-users 2 -gops 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"femtocr/internal/cliflag"
	"femtocr/internal/netmodel"
	"femtocr/internal/packetsim"
	"femtocr/internal/par"
	"femtocr/internal/profiling"
	"femtocr/internal/safeio"
	"femtocr/internal/sim"
	"femtocr/internal/stats"
	"femtocr/internal/trace"
	"femtocr/internal/video"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "femtosim:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) (retErr error) {
	// All report output funnels through a sticky-error writer: fmt.Fprintf
	// errors are recorded once and surfaced at the end instead of being
	// checked (or dropped) at every call site.
	out := safeio.NewWriter(w)
	fs := flag.NewFlagSet("femtosim", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		scenario  = fs.String("scenario", "single", "scenario: single | interfering | noninterfering | metro")
		scheme    = fs.String("scheme", "proposed", "scheme: proposed | h1 | h2 | rr | maxtp")
		seed      = fs.Uint64("seed", 1, "base random seed")
		runs      = fs.Int("runs", 1, "independent replications")
		gops      = fs.Int("gops", 20, "GOPs per run")
		m         = fs.Int("m", 8, "licensed channels M")
		b0        = fs.Float64("b0", 0.3, "common-channel capacity, Mbps")
		b1        = fs.Float64("b1", 0.3, "licensed-channel capacity, Mbps")
		eta       = fs.Float64("eta", -1, "channel utilization (default: P01/(P01+P10) from the paper)")
		gamma     = fs.Float64("gamma", 0.2, "collision threshold")
		eps       = fs.Float64("eps", 0.3, "sensing false-alarm probability")
		delta     = fs.Float64("delta", 0.3, "sensing miss-detection probability")
		bound     = fs.Bool("bound", false, "track Proposed's upper bound (eq. (23) where the greedy allocates, the achieved quality elsewhere)")
		dualTrace = fs.Int("dualtrace", 0, "print the dual-variable convergence trace of the first slot over this many iterations (0: none)")
		packets   = fs.Bool("packets", false, "run the packet-level engine (NAL queues, ARQ, deadlines)")
		priorName = fs.String("prior", "stationary", "fusion prior: stationary (known eta) | estimated (eta learned online) | belief (Bayesian occupancy filter)")
		subcar    = fs.Int("ofdm", 0, "OFDM subcarriers per channel (0: flat Rayleigh links)")
		showTrace = fs.Bool("trace", false, "print a slot-trace summary of the first run")
		asJSON    = fs.Bool("json", false, "emit the last run's result as JSON (for scripting)")
		workers   = fs.Int("workers", 0, "concurrent replications (0: one per CPU); results are identical for any value")
		metroFBS  = fs.Int("metro-fbs", 100, "metro: femtocell count (poisson layout)")
		metroUser = fs.Int("metro-users", 3, "metro: generated users per femtocell")
		metroArea = fs.Float64("metro-area", 0, "metro: square area side in meters (0: auto-size from the FBS count)")
		metroLay  = fs.String("metro-layout", "poisson", "metro: layout, poisson | grid")
		metroRows = fs.Int("metro-rows", 4, "metro grid: city-block rows")
		metroCols = fs.Int("metro-cols", 4, "metro grid: city-block columns")
		metroBloc = fs.Int("metro-block", 3, "metro grid: interfering femtocells per block")
		cpuProf   = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf   = fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runs < 1 {
		return fmt.Errorf("runs=%d: need at least one replication", *runs)
	}
	if *gops < 1 {
		return fmt.Errorf("gops=%d: need at least one GOP", *gops)
	}
	// The sharded metro engine folds no per-engine diagnostics and has no
	// packet-level variant, only the metro scenario reads the -metro-*
	// flags and each layout only its own, the packet engine takes neither a
	// fusion prior nor a bound and prints no JSON, and only Proposed tracks
	// a bound.
	metro := *scenario == "metro"
	if err := cliflag.Check(fs,
		cliflag.Rule{When: metro, Path: "-scenario metro", Ignored: []string{"dualtrace", "trace", "packets"}},
		cliflag.Rule{When: !metro, Path: "-scenario " + *scenario, Ignored: []string{"metro-fbs", "metro-users",
			"metro-area", "metro-layout", "metro-rows", "metro-cols", "metro-block"}},
		cliflag.Rule{When: metro && *metroLay == "grid", Path: "-metro-layout grid", Ignored: []string{"metro-fbs", "metro-area"}},
		cliflag.Rule{When: metro && *metroLay == "poisson", Path: "-metro-layout poisson",
			Ignored: []string{"metro-rows", "metro-cols", "metro-block"}},
		cliflag.Rule{When: *packets, Path: "-packets", Ignored: []string{"prior", "bound", "dualtrace", "trace", "json"}},
		cliflag.Rule{When: *scheme != "proposed", Path: "-scheme " + *scheme + ": only Proposed tracks the upper bound",
			Ignored: []string{"bound"}},
	); err != nil {
		return err
	}
	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil && retErr == nil {
			retErr = err
		}
	}()

	cfg := netmodel.DefaultConfig()
	cfg.M = *m
	cfg.B0 = *b0
	cfg.B1 = *b1
	cfg.Gamma = *gamma
	cfg.Eps = *eps
	cfg.Delta = *delta
	cfg.OFDMSubcarriers = *subcar
	if !(*eta < 0) { // NaN included: WithUtilization rejects it
		var err error
		cfg, err = cfg.WithUtilization(*eta)
		if err != nil {
			return err
		}
	}

	var sch sim.Scheme
	switch *scheme {
	case "proposed":
		sch = sim.Proposed
	case "h1":
		sch = sim.Heuristic1
	case "h2":
		sch = sim.Heuristic2
	case "rr":
		sch = sim.RoundRobin
	case "maxtp":
		sch = sim.MaxThroughput
	default:
		return fmt.Errorf("unknown scheme %q", *scheme)
	}
	priors := map[string]sim.Prior{"stationary": sim.StationaryPrior, "estimated": sim.EstimatedPrior, "belief": sim.BeliefPrior}
	prior, ok := priors[*priorName]
	if !ok {
		return fmt.Errorf("unknown prior %q", *priorName)
	}

	if *scenario == "metro" {
		var spec netmodel.TopologySpec
		switch *metroLay {
		case "poisson":
			spec = netmodel.MetroPoissonSpec(*metroFBS, *metroUser)
			spec.Side = *metroArea
		case "grid":
			spec = netmodel.MetroGridSpec(*metroRows, *metroCols, *metroUser)
			spec.FBSPerBlock = *metroBloc
		default:
			return fmt.Errorf("unknown metro layout %q", *metroLay)
		}
		return runMetro(out, cfg, spec, sim.Options{
			GOPs:       *gops,
			Scheme:     sch,
			Prior:      prior,
			TrackBound: *bound,
			Parallel:   sim.Parallelism{Workers: *workers},
		}, *seed, *runs, *asJSON)
	}

	var spec netmodel.TopologySpec
	switch *scenario {
	case "single":
		spec = netmodel.PaperSingleSpec()
	case "interfering":
		spec = netmodel.PaperInterferingSpec()
	case "noninterfering":
		trio := video.PaperTrio()
		spec = netmodel.NonInterferingSpec([][]video.Sequence{trio[:], trio[:]})
	default:
		return fmt.Errorf("unknown scenario %q", *scenario)
	}
	net, err := netmodel.NewNetwork(cfg, spec)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "scenario=%s scheme=%s M=%d eta=%.3f gamma=%.2f eps=%.2f delta=%.2f B0=%.2f B1=%.2f\n",
		*scenario, sch, cfg.M, cfg.Utilization(), cfg.Gamma, cfg.Eps, cfg.Delta, cfg.B0, cfg.B1)

	if *packets {
		return runPackets(out, net, sch, *seed, *runs, *gops, *workers)
	}

	// Fan the replications over the worker pool: each run writes its result
	// into its own slot, and all accumulation happens after the join in run
	// order, so the report is identical for any worker count.
	results := make([]*sim.Result, *runs)
	recorders := make([]*trace.Recorder, *runs)
	if *showTrace {
		recorders[0] = &trace.Recorder{}
	}
	err = par.RunGrid(*runs, *workers, func(r int) error {
		opts := sim.Options{
			Seed:       *seed + uint64(r),
			GOPs:       *gops,
			Scheme:     sch,
			Prior:      prior,
			TrackBound: *bound,
			Recorder:   recorders[r],
		}
		if r == 0 {
			opts.DualTrace = *dualTrace
		}
		res, err := sim.Run(net, opts)
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", r, *seed+uint64(r), err)
		}
		results[r] = res
		return nil
	})
	if err != nil {
		return err
	}

	var meanAcc, boundAcc, collAcc, fairAcc, minAcc stats.Running
	perUser := make([][]float64, net.K())
	var lastResult *sim.Result
	for r, res := range results {
		lastResult = res
		meanAcc.Add(res.MeanPSNR)
		collAcc.Add(res.CollisionRate)
		fairAcc.Add(res.FairnessIndex)
		minAcc.Add(res.MinUserPSNR)
		if *bound {
			boundAcc.Add(res.BoundPSNR)
		}
		for j, v := range res.PerUserPSNR {
			perUser[j] = append(perUser[j], v)
		}
		if recorders[r] != nil {
			fmt.Fprintln(out, "\nslot-trace summary (run 1):")
			fmt.Fprint(out, recorders[r].Summarize().String())
			fmt.Fprintln(out)
		}
		if res.DualTrace != nil {
			fmt.Fprintln(out, "\ndual-variable trace (iteration lambda_0 lambda_1 ...):")
			for i, row := range res.DualTrace {
				if i%25 != 0 && i != len(res.DualTrace)-1 {
					continue
				}
				fmt.Fprintf(out, "%5d", i)
				for _, l := range row {
					fmt.Fprintf(out, "  %.6g", l)
				}
				fmt.Fprintln(out)
			}
			fmt.Fprintln(out)
		}
	}

	for j := range perUser {
		s, err := stats.Summarize(perUser[j])
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "user %d (%s): %.2f dB ±%.2f\n", j+1, net.Users[j].Seq.Name, s.Mean, s.HalfWidth)
	}
	fmt.Fprintf(out, "mean Y-PSNR: %.2f dB (stddev %.2f over %d runs)\n", meanAcc.Mean(), meanAcc.StdDev(), *runs)
	if *bound {
		fmt.Fprintf(out, "eq.(23) upper bound: %.2f dB\n", boundAcc.Mean())
	}
	fmt.Fprintf(out, "worst user: %.2f dB | fairness (Jain on gains): %.3f\n", minAcc.Mean(), fairAcc.Mean())
	fmt.Fprintf(out, "max conditional collision rate: %.3f (gamma = %.2f; collisions per truly-busy slot, eq. (6))\n", collAcc.Mean(), cfg.Gamma)
	if *asJSON && lastResult != nil {
		lastResult.DualTrace = nil // keep the JSON compact
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(lastResult); err != nil {
			return err
		}
	}
	return out.Err()
}

// runMetro generates a metro-scale topology, runs the sharded engine with
// opts for each replication, at seeds seed, seed+1, ..., and reports folded
// quality. With asJSON it prints the last run's ShardedResult, whose
// MeanPSNR (exact, and bitwise-identical for any -workers setting) and
// Timing scripts/bench_shard.sh reads.
func runMetro(out *safeio.Writer, cfg netmodel.Config, spec netmodel.TopologySpec,
	opts sim.Options, seed uint64, runs int, asJSON bool) error {
	net, err := netmodel.NewNetwork(cfg, spec)
	if err != nil {
		return err
	}
	var lastResult *sim.ShardedResult
	var meanAcc, boundAcc, minAcc, fairAcc, collAcc stats.Running
	for r := 0; r < runs; r++ {
		opts.Seed = seed + uint64(r)
		res, err := sim.RunSharded(net, opts)
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", r, seed+uint64(r), err)
		}
		if r == 0 {
			largest := 0
			for _, s := range res.PerShard {
				if s.FBSs > largest {
					largest = s.FBSs
				}
			}
			fmt.Fprintf(out, "metro: layout=%s scheme=%s fbs=%d users=%d shards=%d largest-shard=%d edges=%d\n",
				spec.Kind, opts.Scheme, res.FBSs, res.Users, res.Shards, largest, net.Graph.NumEdges())
		}
		meanAcc.Add(res.MeanPSNR)
		boundAcc.Add(res.BoundPSNR)
		minAcc.Add(res.MinUserPSNR)
		fairAcc.Add(res.FairnessIndex)
		collAcc.Add(res.CollisionRate)
		lastResult = res
	}
	fmt.Fprintf(out, "mean Y-PSNR: %.2f dB (stddev %.2f over %d runs)\n", meanAcc.Mean(), meanAcc.StdDev(), runs)
	if opts.TrackBound {
		fmt.Fprintf(out, "eq.(23) upper bound: %.2f dB\n", boundAcc.Mean())
	}
	fmt.Fprintf(out, "worst user: %.2f dB | fairness (Jain on gains): %.3f\n", minAcc.Mean(), fairAcc.Mean())
	fmt.Fprintf(out, "max conditional collision rate: %.3f (gamma = %.2f; worst shard, eq. (6))\n", collAcc.Mean(), cfg.Gamma)
	if asJSON && lastResult != nil {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(lastResult); err != nil {
			return err
		}
	}
	return out.Err()
}

// runPackets drives the packet-level engine and prints its statistics.
func runPackets(out *safeio.Writer, net *netmodel.Network, sch sim.Scheme, seed uint64, runs, gops, workers int) error {
	results := make([]*packetsim.Result, runs)
	err := par.RunGrid(runs, workers, func(r int) error {
		res, err := packetsim.Run(net, packetsim.Options{
			Seed:   seed + uint64(r),
			GOPs:   gops,
			Scheme: sch,
		})
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", r, seed+uint64(r), err)
		}
		results[r] = res
		return nil
	})
	if err != nil {
		return err
	}
	var meanAcc stats.Running
	var sent, retrans, dropped, bytes int
	for _, res := range results {
		meanAcc.Add(res.MeanPSNR)
		sent += res.SentPackets
		retrans += res.Retransmissions
		dropped += res.DroppedPackets
		bytes += res.DeliveredBytes
	}
	fmt.Fprintf(out, "packet-level mean Y-PSNR: %.2f dB over %d runs\n", meanAcc.Mean(), runs)
	fmt.Fprintf(out, "fragments sent %d, retransmissions %d, overdue drops %d, delivered %d bytes\n",
		sent, retrans, dropped, bytes)
	return out.Err()
}
