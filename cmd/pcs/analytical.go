package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"repro/internal/cacti"
	"repro/internal/cli"
	"repro/internal/expers"
	"repro/internal/report"
)

// analyticalCommand regenerates the paper's analytical results: Fig. 2
// (SRAM BER vs VDD), Fig. 3a-d, the Sec. 4.2 area-overhead estimates
// and the computed Table-2 voltage plans — the old pcs-analytical
// binary as a subcommand. Every table and line goes to stdout, so tests
// can run the command in-process against the golden output.
func analyticalCommand(stdout io.Writer) *cli.Command {
	var (
		fig2      bool
		fig3a     bool
		fig3b     bool
		fig3c     bool
		fig3d     bool
		area      bool
		vdd       bool
		gap       bool
		organ     bool
		all       bool
		orgN      string
		csv       bool
		mechsCSV  string
		listMechs bool
	)
	return &cli.Command{
		Name:    "analytical",
		Summary: "print the analytical results (Fig. 2/3, area overheads, voltage plans)",
		Usage:   "[-fig2] [-fig3a] [-fig3b] [-fig3c] [-fig3d] [-area] [-vdd] [-gap] [-organize] [-org l1a|l2a|l1b|l2b] [-mechanisms a,b,...] [-list-mechanisms] [-csv]",
		SetFlags: func(fs *flag.FlagSet) {
			fs.BoolVar(&fig2, "fig2", false, "print Fig. 2 (BER vs VDD)")
			fs.BoolVar(&fig3a, "fig3a", false, "print Fig. 3a (static power vs effective capacity)")
			fs.BoolVar(&fig3b, "fig3b", false, "print Fig. 3b (usable blocks vs VDD)")
			fs.BoolVar(&fig3c, "fig3c", false, "print Fig. 3c (leakage breakdown vs VDD)")
			fs.BoolVar(&fig3d, "fig3d", false, "print Fig. 3d (yield vs VDD)")
			fs.BoolVar(&area, "area", false, "print area overheads (Sec. 4.2)")
			fs.BoolVar(&vdd, "vdd", false, "print computed VDD plans (Table 2 voltages)")
			fs.BoolVar(&gap, "gap", false, "print the FFT-Cache gap at 99% capacity")
			fs.BoolVar(&organ, "organize", false, "print the CACTI-style subarray organisation exploration")
			fs.BoolVar(&all, "all", false, "print everything")
			fs.StringVar(&orgN, "org", "l1a", "cache organisation: l1a, l2a, l1b, l2b")
			fs.StringVar(&mechsCSV, "mechanisms", "",
				"comma-separated mechanism selection for the Fig. 3 comparisons (default: the paper's set; see -list-mechanisms)")
			fs.BoolVar(&listMechs, "list-mechanisms", false, "print the mechanism registry and exit")
			fs.BoolVar(&csv, "csv", false, "emit CSV instead of aligned tables")
		},
		Run: func(fs *flag.FlagSet) error {
			render := func(t *report.Table) error { return renderTable(stdout, t, csv) }
			if listMechs {
				return render(expers.MechanismList())
			}
			org, err := pickOrg(orgN)
			if err != nil {
				return err
			}
			mechNames, err := parseMechanisms(mechsCSV)
			if err != nil {
				return err
			}
			if !(fig2 || fig3a || fig3b || fig3c || fig3d || area || vdd || gap || organ) {
				all = true
			}

			if all || fig2 {
				_, t := expers.Fig2()
				if err := render(t); err != nil {
					return err
				}
			}
			if all || fig3a {
				_, t, err := expers.Fig3aMechs(org, 2, mechNames)
				if err != nil {
					return err
				}
				if err := render(t); err != nil {
					return err
				}
			}
			if (all || gap || fig3a) && hasMech(mechNames, "proposed") && hasMech(mechNames, "fftcache") {
				if err := printGaps(stdout, org); err != nil {
					return err
				}
			}
			if all || fig3b {
				_, t, err := expers.Fig3bMechs(org, mechNames)
				if err != nil {
					return err
				}
				if err := render(t); err != nil {
					return err
				}
			}
			if all || fig3c {
				_, t, err := expers.Fig3c(org)
				if err != nil {
					return err
				}
				if err := render(t); err != nil {
					return err
				}
			}
			if all || fig3d {
				_, t, err := expers.Fig3dMechs(org, mechNames)
				if err != nil {
					return err
				}
				if err := render(t); err != nil {
					return err
				}
				_, mt, err := expers.MinVDDMechs(org, mechNames)
				if err != nil {
					return err
				}
				if err := render(mt); err != nil {
					return err
				}
				// Scheme-specific extra tables (TS-Cache replay penalty,
				// L2C2 salvage study, ...). The paper's default set has
				// none, so the golden output is unchanged.
				extra, err := expers.MechanismTables(org, mechNames)
				if err != nil {
					return err
				}
				for _, et := range extra {
					if err := render(et); err != nil {
						return err
					}
				}
			}
			if all || area {
				_, t, err := expers.AreaOverheads()
				if err != nil {
					return err
				}
				if err := render(t); err != nil {
					return err
				}
				if mechNames != nil {
					_, mt, err := expers.MechanismAreas(org, mechNames)
					if err != nil {
						return err
					}
					if err := render(mt); err != nil {
						return err
					}
				}
			}
			if all || vdd {
				_, t, err := expers.VDDPlans()
				if err != nil {
					return err
				}
				if err := render(t); err != nil {
					return err
				}
			}
			if all || organ {
				if err := printOrganization(org, render); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// printOrganization shows the subarray-partition exploration for the
// selected cache (the optimisation CACTI ran for the paper).
func printOrganization(org cacti.Org, render func(*report.Table) error) error {
	all, err := cacti.Explore(org, cacti.DefaultWireParams(), 32)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Subarray organisation exploration (%s), best EDP first", org.Name),
		"Ndwl", "Ndbl", "Subarray", "Access (ns)", "Read (pJ)", "Area (mm²)", "EDP")
	limit := len(all)
	if limit > 10 {
		limit = 10
	}
	for _, o := range all[:limit] {
		t.AddRow(o.NDWL, o.NDBL,
			fmt.Sprintf("%dx%d", o.SubRows, o.SubCols),
			fmt.Sprintf("%.3f", o.AccessNS),
			fmt.Sprintf("%.2f", o.ReadEnergyPJ),
			fmt.Sprintf("%.3f", o.AreaMM2),
			fmt.Sprintf("%.3f", o.EDP))
	}
	return render(t)
}

func pickOrg(name string) (cacti.Org, error) {
	return expers.OrgByName(name)
}

// parseMechanisms parses a -mechanisms selection. An empty flag returns
// nil, the registry's default set (the paper's comparison, which the
// golden tables show). A non-empty selection is resolved eagerly so
// typos fail before any table prints.
func parseMechanisms(csv string) ([]string, error) {
	if strings.TrimSpace(csv) == "" {
		return nil, nil
	}
	var names []string
	for _, n := range strings.Split(csv, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	if _, err := expers.ResolveMechanisms(names); err != nil {
		return nil, err
	}
	return names, nil
}

// hasMech reports whether a -mechanisms selection contains name; a nil
// selection means the default set, which contains every default entry.
func hasMech(names []string, name string) bool {
	if names == nil {
		return true
	}
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

func printGaps(w io.Writer, org cacti.Org) error {
	for _, n := range []int{1, 2} {
		gap, err := expers.Fig3aGapAt99(org, n)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Proposed vs FFT-Cache at 99%% capacity (%d VDD levels): %.1f%% lower static power\n",
			n+1, gap*100)
	}
	fmt.Fprintln(w)
	return nil
}
