// Command secanalysis runs the TPRAC security analysis: the Figure 7 TMAX
// sweep, the solved TB-Window per RowHammer threshold (solved in parallel
// across thresholds), and (optionally) an empirical Feinting attack
// validating a solved window against the live simulator. The Figure 7
// result is memoized in the persistent run store (-store, on by
// default), so a rerun skips the sweep once any run has finished it;
// the empirical validation always runs live.
//
// Usage:
//
//	secanalysis [-empirical] [-nbo N] [-store DIR|auto|off] [-csvdir DIR]
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"pracsim/internal/analysis"
	"pracsim/internal/dram"
	"pracsim/internal/exp"
	"pracsim/internal/exp/store"
	"pracsim/internal/ticks"
)

func main() {
	empirical := flag.Bool("empirical", false, "also run a live Feinting attack against the solved window")
	nbo := flag.Int("nbo", 256, "Back-Off threshold for the empirical validation")
	storeMode := flag.String("store", "auto", "persistent result store: a directory, 'auto' (user cache dir) or 'off'")
	csvDir := flag.String("csvdir", "", "directory to write fig7.csv into (optional)")
	flag.Parse()

	st, warn, err := store.Resolve(*storeMode, store.DiskOptions{})
	if warn != "" {
		fmt.Fprintln(os.Stderr, "secanalysis: "+warn)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "secanalysis:", err)
		if errors.Is(err, store.ErrURLSpec) {
			os.Exit(2)
		}
		os.Exit(1)
	}
	res, err := exp.Memo(st, "secanalysis/fig7", func() (exp.Fig7Result, error) {
		return exp.RunFig7()
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "secanalysis:", err)
		os.Exit(1)
	}
	if st != nil {
		fmt.Println(st.Stats().Report(st.Spec()))
	}
	fmt.Println(res.Render())
	if *csvDir != "" {
		path := filepath.Join(*csvDir, "fig7.csv")
		if err := os.WriteFile(path, []byte(res.CSV()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "secanalysis:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", path)
	}

	if !*empirical {
		return
	}
	dcfg := dram.DefaultConfig(*nbo)
	// A scaled refresh window keeps the validation to seconds while
	// preserving the attack's structure.
	dcfg.Timing.TREFW = ticks.FromMS(2)
	p := analysis.ParamsFromDRAM(dcfg)
	window, err := p.SolveWindow(*nbo, dcfg.PRAC.ResetOnREFW, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "secanalysis:", err)
		os.Exit(1)
	}
	fmt.Printf("empirical Feinting attack against TB-Window=%v (NBO=%d, scaled tREFW=%v)...\n",
		window, *nbo, dcfg.Timing.TREFW)
	att, err := analysis.RunEmpiricalFeinting(analysis.EmpiricalConfig{DRAM: dcfg, Window: window})
	if err != nil {
		fmt.Fprintln(os.Stderr, "secanalysis:", err)
		os.Exit(1)
	}
	fmt.Printf("pool=%d rounds=%d target-max-acts=%d alerts=%d tb-rfms=%d\n",
		att.PoolSize, att.Rounds, att.TargetMaxActs, att.Alerts, att.TBRFMs)
	if att.Alerts == 0 && int(att.TargetMaxActs) < *nbo {
		fmt.Println("PASS: no Alert Back-Off was reachable under the Feinting attack")
	} else {
		fmt.Println("FAIL: the attack reached the Back-Off threshold")
		os.Exit(1)
	}
}
