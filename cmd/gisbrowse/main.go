// Command gisbrowse is an interactive exploratory browser over a generated
// telephone-network database — the paper's GIS interface driven from a
// terminal. It supports both strong integration (default) and weak
// integration against a gisd server (-connect).
//
// Commands at the prompt:
//
//	schema                  open the Schema window
//	class <name>            open a Class set window
//	pick <oid>              open an Instance window
//	analyze <class> <attr> <op> <value>   analysis-mode filtered window
//	screen                  render all windows
//	svg <window>            render a window's map as SVG
//	windows                 list open windows
//	close <window>          close a window (cascades)
//	explain                 explanation mode: why these windows
//	scenario <subcmd> ...   simulation mode (start/pole/move/delete/window/commit/drop)
//	stale / refresh         view-refresh: list and rebuild out-of-date windows
//	stats                   per-verb latency quantiles (server's in -connect mode)
//	trace [id]              list the server's retained traces, or print one span tree
//	quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	gisui "repro"
	"repro/internal/catalog"
	"repro/internal/client"
	"repro/internal/geodb"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/render"
	"repro/internal/workload"
)

func main() {
	var (
		user       = flag.String("user", "maria", "user name for the interaction context")
		category   = flag.String("category", "", "user category")
		app        = flag.String("app", "pole_manager", "application domain")
		poles      = flag.Int("poles", 12, "poles per zone in the generated network")
		zones      = flag.Int("zones", 1, "zones per side")
		seed       = flag.Int64("seed", 1997, "generator seed")
		directives = flag.String("directives", "", "customization directive file to install ('figure6' for the paper's script)")
		connect    = flag.String("connect", "", "connect to a gisd server address instead of embedding the DBMS")
		timeout    = flag.Duration("timeout", 10*time.Second, "per-request deadline in -connect mode (0 = none)")
		retries    = flag.Int("retries", 4, "retry attempts for retrieval requests in -connect mode (1 = no retry)")
		script     = flag.Bool("script", false, "read commands from stdin without a prompt (non-interactive)")
	)
	flag.Parse()

	lib, err := workload.StandardLibrary()
	if err != nil {
		fatal(err)
	}
	ctx := gisui.Context(*user, *category, *app)

	var session *gisui.Session
	var remote *client.Client // non-nil in -connect mode: stats/trace verbs
	if *connect != "" {
		// Fault-tolerant transport: retrieval requests are retried with
		// backoff and the connection is re-dialed, so an exploratory session
		// survives a gisd restart without user-visible errors.
		s, cli, err := gisui.RemoteSessionOptions(*connect, lib, ctx, gisui.ClientOptions{
			Timeout: *timeout,
			Retry:   gisui.RetryPolicy{MaxAttempts: *retries},
		})
		if err != nil {
			fatal(err)
		}
		defer cli.Close()
		session = s
		remote = cli
		fmt.Printf("connected to %s as %s\n", *connect, ctx)
	} else {
		sys := gisui.MustOpen(gisui.Config{Name: "GEO", Library: lib})
		defer sys.Close()
		net, err := workload.BuildPhoneNet(sys.DB, workload.PhoneNetOptions{
			Seed: *seed, ZonesPerSide: *zones, PolesPerZone: *poles})
		if err != nil {
			fatal(err)
		}
		if *directives != "" {
			src := workload.Figure6Source
			if *directives != "figure6" {
				data, err := os.ReadFile(*directives)
				if err != nil {
					fatal(err)
				}
				src = string(data)
			}
			if _, err := sys.InstallDirectives(src); err != nil {
				fatal(err)
			}
			fmt.Printf("installed %d customization rules\n", sys.Engine.RuleCount())
		}
		fmt.Printf("embedded database: %d poles, %d ducts, %d zones (context %s)\n",
			len(net.Poles), len(net.Ducts), len(net.Zones), ctx)
		session = sys.NewSession(ctx)
	}
	if err := session.Connect(); err != nil {
		fatal(err)
	}

	in := bufio.NewScanner(os.Stdin)
	for {
		if !*script {
			fmt.Print("gis> ")
		}
		if !in.Scan() {
			return
		}
		fields := strings.Fields(in.Text())
		if len(fields) == 0 {
			continue
		}
		if err := dispatch(session, remote, fields); err != nil {
			if err == errQuit {
				return
			}
			fmt.Println("error:", err)
		}
	}
}

var errQuit = fmt.Errorf("quit")

func dispatch(s *gisui.Session, remote *client.Client, fields []string) error {
	switch fields[0] {
	case "schema":
		_, err := s.OpenSchema(workload.SchemaName)
		return err
	case "class":
		if len(fields) != 2 {
			return fmt.Errorf("usage: class <name>")
		}
		_, err := s.OpenClass(workload.SchemaName, fields[1])
		return err
	case "pick":
		if len(fields) != 2 {
			return fmt.Errorf("usage: pick <oid>")
		}
		oid, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return err
		}
		_, err = s.OpenInstance(catalog.OID(oid))
		return err
	case "analyze":
		if len(fields) != 5 {
			return fmt.Errorf("usage: analyze <class> <attr> <op> <value>")
		}
		value := parseValue(fields[4])
		_, err := s.Analyze(workload.SchemaName, fields[1], []geodb.Filter{
			{Attr: fields[2], Op: fields[3], Value: value}})
		return err
	case "screen":
		fmt.Print(s.Screen())
		return nil
	case "svg":
		if len(fields) != 2 {
			return fmt.Errorf("usage: svg <window>")
		}
		win, err := s.Window(fields[1])
		if err != nil {
			return err
		}
		area := win.Find("map")
		if area == nil {
			return fmt.Errorf("window %q has no map", fields[1])
		}
		fmt.Print(render.SVG(area, render.SVGOptions{Width: 640, Height: 480, Labels: true}))
		return nil
	case "windows":
		for _, name := range s.Windows() {
			fmt.Println(" ", name)
		}
		return nil
	case "close":
		if len(fields) != 2 {
			return fmt.Errorf("usage: close <window>")
		}
		return s.CloseWindow(fields[1])
	case "explain":
		for _, line := range s.Explain() {
			fmt.Println(" ", line)
		}
		return nil
	case "scenario":
		return scenarioCmd(s, fields[1:])
	case "stale":
		for _, name := range s.Stale() {
			fmt.Println(" ", name)
		}
		return nil
	case "refresh":
		n, err := s.RefreshAll()
		if err != nil {
			return err
		}
		fmt.Printf("refreshed %d window(s)\n", n)
		return nil
	case "stats":
		return statsCmd(remote)
	case "trace":
		return traceCmd(remote, fields[1:])
	case "quit", "exit":
		return errQuit
	default:
		return fmt.Errorf("unknown command %q", fields[0])
	}
}

// statsCmd prints per-verb latency quantiles derived from the latency
// histograms' bucket counts — the server's registry over the stats verb in
// -connect mode, the local process registry when embedded.
func statsCmd(remote *client.Client) error {
	var snap obs.Snapshot
	if remote != nil {
		var err error
		snap, err = remote.Stats()
		if err != nil {
			return err
		}
	} else {
		snap = obs.Default().Snapshot()
	}
	names := make([]string, 0, len(snap.Histograms))
	for name := range snap.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("  %-52s %8s %9s %9s %9s\n", "histogram", "count", "p50", "p95", "p99")
	for _, name := range names {
		h := snap.Histograms[name]
		if h.Count == 0 {
			continue
		}
		fmt.Printf("  %-52s %8d %8.2fms %8.2fms %8.2fms\n", name, h.Count,
			h.Quantile(0.50)*1e3, h.Quantile(0.95)*1e3, h.Quantile(0.99)*1e3)
	}
	return nil
}

// traceCmd lists the server's retained traces, or prints one trace's span
// tree when given a hex trace ID.
func traceCmd(remote *client.Client, args []string) error {
	if remote == nil {
		return fmt.Errorf("trace requires -connect (the embedded browser keeps no tail sampler)")
	}
	if len(args) == 0 {
		traces, err := remote.Traces()
		if err != nil {
			return err
		}
		if len(traces) == 0 {
			fmt.Println("  no traces retained yet")
			return nil
		}
		fmt.Printf("  %-16s %-8s %10s %6s  %s\n", "trace", "reason", "duration", "spans", "root")
		for _, td := range traces {
			root := ""
			for _, sp := range td.Spans {
				if sp.ID == td.Root {
					root = sp.Name
					break
				}
			}
			fmt.Printf("  %-16s %-8s %10s %6d  %s\n",
				obs.IDString(td.TraceID), td.Reason, td.Duration.Round(time.Microsecond),
				len(td.Spans), root)
		}
		return nil
	}
	id, err := obs.ParseID(args[0])
	if err != nil {
		return err
	}
	td, err := remote.Trace(id)
	if err != nil {
		return err
	}
	fmt.Printf("  trace %s (%s, %s, %d spans)\n",
		obs.IDString(td.TraceID), td.Reason, td.Duration.Round(time.Microsecond), len(td.Spans))
	printSpanTree(td.Spans)
	return nil
}

// printSpanTree renders spans as an indented tree. Spans whose parent is
// missing (e.g. the client half of a cross-process trace when only the
// server retained it) print as additional roots.
func printSpanTree(spans []obs.Span) {
	children := make(map[uint64][]int, len(spans))
	have := make(map[uint64]bool, len(spans))
	for _, sp := range spans {
		have[sp.ID] = true
	}
	var roots []int
	for i, sp := range spans {
		if sp.Parent != 0 && have[sp.Parent] {
			children[sp.Parent] = append(children[sp.Parent], i)
		} else {
			roots = append(roots, i)
		}
	}
	byStart := func(idx []int) {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].Start.Before(spans[idx[b]].Start) })
	}
	byStart(roots)
	var walk func(i, depth int)
	walk = func(i, depth int) {
		sp := spans[i]
		line := fmt.Sprintf("  %s%s %s", strings.Repeat("  ", depth), sp.Name,
			sp.End.Sub(sp.Start).Round(time.Microsecond))
		for _, a := range sp.Attrs {
			line += fmt.Sprintf(" %s=%s", a.Key, a.Value)
		}
		if sp.Error != "" {
			line += " error=" + sp.Error
		}
		fmt.Println(line)
		kids := children[sp.ID]
		byStart(kids)
		for _, k := range kids {
			walk(k, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
}

// scenarioCmd handles the simulation-mode subcommands:
//
//	scenario start <name>
//	scenario pole <x> <y>      hypothetically place a pole
//	scenario move <oid> <x> <y>
//	scenario delete <oid>
//	scenario window <class>    open the merged class window
//	scenario commit | drop
func scenarioCmd(s *gisui.Session, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: scenario start|pole|move|delete|window|commit|drop ...")
	}
	switch args[0] {
	case "start":
		if len(args) != 2 {
			return fmt.Errorf("usage: scenario start <name>")
		}
		return s.StartScenario(args[1])
	case "pole":
		if len(args) != 3 {
			return fmt.Errorf("usage: scenario pole <x> <y>")
		}
		values, err := poleAt(args[1], args[2])
		if err != nil {
			return err
		}
		oid, err := s.ScenarioInsert(workload.SchemaName, "Pole", values)
		if err != nil {
			return err
		}
		fmt.Printf("hypothetical pole %d\n", oid)
		return nil
	case "move":
		if len(args) != 4 {
			return fmt.Errorf("usage: scenario move <oid> <x> <y>")
		}
		oid, err := strconv.ParseUint(args[1], 10, 64)
		if err != nil {
			return err
		}
		values, err := poleAt(args[2], args[3])
		if err != nil {
			return err
		}
		return s.ScenarioUpdate(catalog.OID(oid), values)
	case "delete":
		if len(args) != 2 {
			return fmt.Errorf("usage: scenario delete <oid>")
		}
		oid, err := strconv.ParseUint(args[1], 10, 64)
		if err != nil {
			return err
		}
		return s.ScenarioDelete(catalog.OID(oid))
	case "window":
		if len(args) != 2 {
			return fmt.Errorf("usage: scenario window <class>")
		}
		win, err := s.OpenClassSimulated(workload.SchemaName, args[1])
		if err != nil {
			return err
		}
		fmt.Printf("opened %s with %d shapes\n", win.Name, len(win.Find("map").Shapes))
		return nil
	case "commit":
		if err := s.CommitScenario(); err != nil {
			return err
		}
		fmt.Println("scenario committed")
		return nil
	case "drop":
		return s.DropScenario()
	default:
		return fmt.Errorf("unknown scenario command %q", args[0])
	}
}

// poleAt builds Pole values with only a location (other attributes null),
// using the schema-ordered layout the scenario API expects.
func poleAt(xs, ys string) ([]catalog.Value, error) {
	x, err := strconv.ParseFloat(xs, 64)
	if err != nil {
		return nil, err
	}
	y, err := strconv.ParseFloat(ys, 64)
	if err != nil {
		return nil, err
	}
	// Effective attr order of the workload Pole class: pole_type,
	// pole_composition, pole_supplier, pole_location, pole_picture,
	// pole_historic.
	return []catalog.Value{
		catalog.Null, catalog.Null, catalog.Null,
		catalog.GeomVal(geom.Pt(x, y)),
		catalog.Null, catalog.Null,
	}, nil
}

// parseValue guesses the literal type: integer, float, then text.
func parseValue(s string) catalog.Value {
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return catalog.IntVal(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return catalog.FloatVal(f)
	}
	return catalog.TextVal(s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gisbrowse:", err)
	os.Exit(1)
}
