// Command fpmdis disassembles a proxy application before and after the FPM
// instrumentation pass, making the paper's Fig. 3 transformation visible on
// real code: the primary chain with fim_inj injection points, the secondary
// (pristine) chain marked with '~', fpm_fetch after loads and fpm_store in
// place of stores. With -decoded it shows how the interpreter runs the
// instrumented function: which fim_inj groups its full and clean code
// arrays fuse into their consumers and which instruction pairs they run as
// one superinstruction, followed by the program's fusion census.
//
// Usage:
//
//	fpmdis [-app LULESH] [-func main] [-instrumented] [-decoded] [-head N]
//	fpmdis -fig3            (the paper's c = 2*a + b example)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/apps"
	"repro/internal/ir"
	"repro/internal/transform"
	"repro/internal/vm"
)

func main() {
	appName := flag.String("app", "LULESH", "application to disassemble")
	funcName := flag.String("func", "main", "function to show")
	instrumented := flag.Bool("instrumented", true, "show the FPM-instrumented form")
	head := flag.Int("head", 60, "lines to print (0: all)")
	fig3 := flag.Bool("fig3", false, "show the paper's Fig. 3 example instead")
	decoded := flag.Bool("decoded", false, "mark the interpreter's fused full and clean code arrays and print the fusion census")
	flag.Parse()

	var prog *ir.Program
	if *fig3 {
		b := ir.NewBuilder()
		a := b.Global("a", 1)
		bb := b.Global("b", 1)
		c := b.Global("c", 1)
		f := b.Func("main", 0, 0)
		r1 := f.Load(ir.ImmI(a))
		r2 := f.Load(ir.ImmI(bb))
		r3 := f.Mul(ir.R(r1), ir.ImmI(2))
		r4 := f.Add(ir.R(r2), ir.R(r3))
		f.Store(ir.R(r4), ir.ImmI(c))
		f.Ret()
		prog = b.MustBuild()
		*funcName = "main"
		*head = 0
		fmt.Println("statement: c = 2*a + b (paper Fig. 3)")
		fmt.Println("\n--- original IR ---")
		fmt.Print(ir.Disassemble(prog, prog.FuncNamed("main")))
	} else {
		app := apps.ByName(*appName)
		if app == nil {
			fmt.Fprintf(os.Stderr, "unknown app %q\n", *appName)
			os.Exit(2)
		}
		var err error
		prog, err = app.Build(app.TestParams())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	show := prog
	if *instrumented || *fig3 || *decoded {
		inst, err := transform.Instrument(prog, transform.DefaultOptions())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		show = inst
		if *fig3 {
			fmt.Println("\n--- FPM-instrumented IR (primary + '~' secondary chain) ---")
		}
	}
	fn := show.FuncNamed(*funcName)
	if fn == nil {
		fmt.Fprintf(os.Stderr, "no function %q; have:", *funcName)
		for _, f := range show.Funcs {
			fmt.Fprintf(os.Stderr, " %s", f.Name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	text := ir.Disassemble(show, fn)
	if *decoded {
		text = decodedListing(show, fn)
	}
	if *head > 0 {
		lines := strings.SplitAfter(text, "\n")
		if len(lines) > *head {
			lines = append(lines[:*head], fmt.Sprintf("... (%d more lines)\n", len(lines)-*head))
		}
		text = strings.Join(lines, "")
	}
	fmt.Print(text)
	st := show.CollectStats()
	fmt.Printf("\n%d functions, %d instructions, %d static fim_inj sites\n",
		st.Funcs, st.Instructions, transform.CountStaticSites(show))
	if *decoded {
		var fullSites, cleanSites, twins, cleanPairs int
		for _, f := range vm.Fusions(show) {
			switch {
			case f.Clean:
				cleanSites += f.Sites
				if f.Second >= 0 {
					cleanPairs++
				}
			default:
				fullSites += f.Sites
				if f.Twin {
					twins++
				}
			}
		}
		fmt.Printf("fusion census: fim_inj sites fused %d in full, %d in clean; %d twin pairs (full); %d clean pairs\n",
			fullSites, cleanSites, twins, cleanPairs)
	}
}

// decodedListing renders fn's instructions beside two columns marking its
// full and clean code arrays (one pc numbering): "→N" a fim_inj fused into
// the consumer at pc N, "+k" a consumer retiring k fused sites, "a+b" the
// head of a superinstruction and "2nd of N" its second instruction, which
// keeps its standalone form. The clean array also skips every '~' line
// and fpm_fetch, unmarked.
func decodedListing(prog *ir.Program, fn *ir.Func) string {
	var marks [2][]string
	for i := range marks {
		marks[i] = make([]string, len(fn.Code))
	}
	for _, f := range vm.Fusions(prog) {
		if f.Func != fn.Name {
			continue
		}
		m := marks[0]
		if f.Clean {
			m = marks[1]
		}
		for pc := f.PC - f.Sites; pc < f.PC; pc++ {
			m[pc] = fmt.Sprintf("→%d", f.PC)
		}
		var head []string
		if f.Second >= 0 {
			head = append(head, f.Op)
			m[f.Second] = fmt.Sprintf("2nd of %d", f.PC)
		}
		if f.Sites > 0 {
			head = append(head, fmt.Sprintf("+%d", f.Sites))
		}
		m[f.PC] = strings.Join(head, " ")
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s, decoded:\n  pc  %-20s %-20s instruction\n", fn.Name, "full", "clean")
	for pc := range fn.Code {
		fmt.Fprintf(&sb, "%4d  %-20s %-20s%s\n", pc, marks[0][pc], marks[1][pc], ir.FormatInstr(prog, &fn.Code[pc]))
	}
	return sb.String()
}
