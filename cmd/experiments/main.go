// Command experiments regenerates every table and figure of the paper's
// evaluation (§5) on the simulated substrates.
//
// Usage:
//
//	experiments -exp all
//	experiments -exp table5 -scale 2 -seed 7
//	experiments -exp fig3 -runs 10
//
// Experiments: fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 table5 table6
// table7 eval541 all. bench_test.go runs the same drivers, one benchmark per
// artefact, reporting each one's headline quantity.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"kbt/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (fig3..fig10, table5..table7, eval541, all)")
	scale := flag.Float64("scale", 1, "corpus size multiplier for the KV experiments")
	seed := flag.Int64("seed", 1, "random seed")
	runs := flag.Int("runs", 10, "repetitions for the synthetic sweeps (figs 3-4)")
	maxExt := flag.Int("max-extractors", 10, "extractor sweep upper bound for fig3")
	flag.Parse()

	cfg := experiments.DefaultKVConfig()
	cfg.Scale = *scale
	cfg.Seed = *seed

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = []string{"fig3", "fig4", "fig5", "table5", "fig8", "fig9",
			"fig6", "table6", "table7", "fig7", "fig10", "eval541"}
	}
	for _, id := range ids {
		if err := run(strings.TrimSpace(id), cfg, *runs, *maxExt); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", id, err)
			os.Exit(1)
		}
	}
}

func run(id string, cfg experiments.KVConfig, runs, maxExt int) error {
	switch id {
	case "fig3":
		return printFig3(cfg, runs, maxExt)
	case "fig4":
		return printFig4(cfg, runs)
	case "fig5":
		return printFig5(cfg)
	case "fig6":
		return printFig6(cfg)
	case "fig7":
		return printFig7(cfg)
	case "fig8", "fig9", "table5":
		return printTable5AndCurves(cfg, id)
	case "fig10":
		return printFig10(cfg)
	case "table6":
		return printTable6(cfg)
	case "table7":
		return printTable7(cfg)
	case "eval541":
		return printEval541(cfg)
	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func printFig3(cfg experiments.KVConfig, runs, maxExt int) error {
	header(fmt.Sprintf("Figure 3: square loss vs #extractors (synthetic, avg of %d runs)", runs))
	rows, err := experiments.Fig3(maxExt, runs, cfg.Seed)
	if err != nil {
		return err
	}
	fmt.Printf("%4s  %9s %9s  %9s  %9s %9s\n",
		"#ext", "SqV(sgl)", "SqV(mlt)", "SqC(mlt)", "SqA(sgl)", "SqA(mlt)")
	for _, r := range rows {
		fmt.Printf("%4d  %9.4f %9.4f  %9.4f  %9.4f %9.4f\n",
			r.NumExtractors, r.SingleSqV, r.MultiSqV, r.MultiSqC, r.SingleSqA, r.MultiSqA)
	}
	return nil
}

func printFig4(cfg experiments.KVConfig, runs int) error {
	header(fmt.Sprintf("Figure 4: multi-layer square loss vs extractor/source quality (avg of %d runs)", runs))
	for _, param := range []experiments.Fig4Param{
		experiments.VaryRecall, experiments.VaryPrecision, experiments.VaryAccuracy,
	} {
		rows, err := experiments.Fig4(param, runs, cfg.Seed)
		if err != nil {
			return err
		}
		fmt.Printf("varying %s:\n", param)
		fmt.Printf("  %5s  %8s %8s %8s\n", param, "SqV", "SqC", "SqA")
		for _, r := range rows {
			fmt.Printf("  %5.1f  %8.4f %8.4f %8.4f\n", r.Value, r.SqV, r.SqC, r.SqA)
		}
	}
	return nil
}

func printFig5(cfg experiments.KVConfig) error {
	header("Figure 5: distribution of #triples per URL / extraction pattern")
	series, err := experiments.Fig5(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s", "bucket")
	for _, s := range series {
		fmt.Printf(" %20s", s.Name)
	}
	fmt.Println()
	for i := range series[0].Buckets {
		fmt.Printf("%-10s", series[0].Buckets[i].Label)
		for _, s := range series {
			fmt.Printf(" %20d", s.Buckets[i].Count)
		}
		fmt.Println()
	}
	return nil
}

func printTable5AndCurves(cfg experiments.KVConfig, id string) error {
	runs, err := experiments.Table5(cfg)
	if err != nil {
		return err
	}
	switch id {
	case "table5":
		header("Table 5: method comparison on the simulated KV corpus")
		fmt.Printf("%-15s %8s %8s %8s %8s\n", "method", "SqV", "WDev", "AUC-PR", "Cov")
		for _, r := range runs {
			fmt.Printf("%-15s %8.4f %8.4f %8.4f %8.4f\n", r.Name(), r.SqV, r.WDev, r.AUCPR, r.Cov)
		}
	case "fig8":
		header("Figure 8: calibration curves (+ variants)")
		for _, s := range experiments.Fig8(runs) {
			fmt.Printf("%s:\n  %9s %9s %8s\n", s.Name, "predicted", "real", "count")
			for _, p := range s.Points {
				fmt.Printf("  %9.3f %9.3f %8d\n", p.Predicted, p.Real, p.Count)
			}
		}
	case "fig9":
		header("Figure 9: PR curves (+ variants)")
		for _, s := range experiments.Fig9(runs) {
			fmt.Printf("%s: %d points; ", s.Name, len(s.Points))
			// Print a decile summary to keep the output readable.
			step := len(s.Points) / 10
			if step < 1 {
				step = 1
			}
			for i := 0; i < len(s.Points); i += step {
				p := s.Points[i]
				fmt.Printf("(R=%.2f,P=%.2f) ", p.Recall, p.Precision)
			}
			fmt.Println()
		}
	}
	return nil
}

func printFig6(cfg experiments.KVConfig) error {
	header("Figure 6: predicted extraction correctness, type-error vs KB-true triples")
	res, err := experiments.Fig6(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %12s %12s\n", "p(C) bin", "type-error", "KB-true")
	for i := range res.TypeError {
		fmt.Printf("[%.2f,%.2f) %12d %12d\n",
			res.TypeError[i].Lo, res.TypeError[i].Hi,
			res.TypeError[i].Count, res.KBTrue[i].Count)
	}
	fmt.Printf("\ntype-error triples: %.0f%% below 0.1, %.0f%% above 0.7 (paper: 80%%, 8%%)\n",
		100*res.TypeErrLow, 100*res.TypeErrHigh)
	fmt.Printf("KB-true triples:    %.0f%% below 0.1, %.0f%% above 0.7 (paper: 26%%, 54%%)\n",
		100*res.KBTrueLow, 100*res.KBTrueHigh)
	return nil
}

func printTable6(cfg experiments.KVConfig) error {
	header("Table 6: inference-algorithm ablations (MULTILAYER+)")
	rows, err := experiments.Table6(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%-20s %8s %8s %8s %8s\n", "variant", "SqV", "WDev", "AUC-PR", "Cov")
	for _, r := range rows {
		fmt.Printf("%-20s %8.4f %8.4f %8.4f %8.4f\n", r.Name, r.SqV, r.WDev, r.AUCPR, r.Cov)
	}
	return nil
}

func printTable7(cfg experiments.KVConfig) error {
	header("Table 7: relative running time (one Normal iteration = 1.0)")
	cols, err := experiments.Table7(cfg, cfg.MinSupport, cfg.MaxSize)
	if err != nil {
		return err
	}
	fmt.Printf("%-22s", "task")
	for _, c := range cols {
		fmt.Printf(" %12s", c.Strategy)
	}
	fmt.Println()
	row := func(name string, get func(experiments.Table7Column) float64) {
		fmt.Printf("%-22s", name)
		for _, c := range cols {
			fmt.Printf(" %12.3f", get(c))
		}
		fmt.Println()
	}
	row("Prep. Source", func(c experiments.Table7Column) float64 { return c.PrepSource })
	row("Prep. Extractor", func(c experiments.Table7Column) float64 { return c.PrepExtractor })
	row("Prep. Total", func(c experiments.Table7Column) float64 { return c.PrepTotal })
	row("I. ExtCorr", func(c experiments.Table7Column) float64 { return c.ExtCorr })
	row("II. TriplePr", func(c experiments.Table7Column) float64 { return c.TriplePr })
	row("III. SrcAccu", func(c experiments.Table7Column) float64 { return c.SrcAccu })
	row("IV. ExtQuality", func(c experiments.Table7Column) float64 { return c.ExtQual })
	row("Iter. Total", func(c experiments.Table7Column) float64 { return c.IterTotal })
	row("Total (prep+5 iters)", func(c experiments.Table7Column) float64 { return c.Total })
	return nil
}

func printFig7(cfg experiments.KVConfig) error {
	header("Figure 7: distribution of website KBT (sites with >=5 extracted triples)")
	res, err := experiments.Fig7(cfg)
	if err != nil {
		return err
	}
	for _, b := range res.Bins {
		bar := strings.Repeat("#", b.Count)
		if len(bar) > 60 {
			bar = bar[:60] + "+"
		}
		fmt.Printf("[%.2f,%.2f) %5d %s\n", b.Lo, b.Hi, b.Count, bar)
	}
	fmt.Printf("\nreportable sites: %d; peak bin: [%.2f,%.2f); share above 0.8: %.0f%% (paper: peak 0.8, 52%%)\n",
		res.ReportableSites, res.PeakBin.Lo, res.PeakBin.Hi, 100*res.FracAbove08)
	return nil
}

func printFig10(cfg experiments.KVConfig) error {
	header("Figure 10: KBT vs PageRank (sampled websites)")
	res, err := experiments.Fig10(cfg, 2000)
	if err != nil {
		return err
	}
	fmt.Printf("%-22s %8s %9s %s\n", "site", "KBT", "PageRank", "kind")
	limit := 25
	for i, p := range res.Points {
		if i >= limit {
			fmt.Printf("... (%d more)\n", len(res.Points)-limit)
			break
		}
		fmt.Printf("%-22s %8.3f %9.3f %v\n", p.Site, p.KBT, p.PageRank, p.Kind)
	}
	fmt.Printf("\ncorrelation(KBT, PageRank) = %.3f (paper: 'almost orthogonal')\n", res.Correlation)
	fmt.Printf("high-KBT sites (>0.9): %d, of which low-PageRank: %d (paper: 85 trustworthy, only 20 with PR>0.5)\n",
		res.HighKBT, res.HighKBTLowPR)
	fmt.Printf("gossip sites in PR top 15%% and KBT bottom half: %d/%d (paper: 14/15 popular, all bottom-half KBT)\n",
		res.GossipHighPRLowKBT, res.GossipSitesEvaluated)
	return nil
}

func printEval541(cfg experiments.KVConfig) error {
	header("§5.4.1: programmatic evaluation of high-KBT sites (4 criteria)")
	res, err := experiments.Eval541(cfg, 100, 0.9)
	if err != nil {
		return err
	}
	fmt.Printf("sites evaluated:        %d\n", res.SitesEvaluated)
	fmt.Printf("trustworthy (all 4):    %d (paper: 85/100)\n", res.Trustworthy)
	fmt.Printf("fail triple correct.:   %d\n", res.FailTripleCorrectness)
	fmt.Printf("fail extraction corr.:  %d (paper: 2)\n", res.FailExtractionCorrectness)
	fmt.Printf("fail topic relevance:   %d (paper: 2)\n", res.FailTopicRelevance)
	fmt.Printf("fail non-trivialness:   %d (paper: 12)\n", res.FailNonTrivial)
	fmt.Printf("trustworthy with high PageRank: %d (paper: 20/85)\n", res.TrustworthyWithHighPR)
	return nil
}
