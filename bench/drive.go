package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/event"
	"repro/internal/geodb"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/render"
	"repro/internal/ui"
	"repro/internal/uikit"
	"repro/internal/workload"
)

type opKind uint8

const (
	opSchema opKind = iota
	opClass
	opInstance
	opZoom
	opPick
)

func (k opKind) String() string {
	return [...]string{"schema", "class", "instance", "zoom", "pick"}[k]
}

// step is one user action. n picks an instance (modulo the class extension,
// or modulo the original poles the last zoom showed); view is a zoom's
// viewport.
type step struct {
	op    opKind
	class string
	n     int
	view  geom.Rect
}

// visit is one user session: its context and the steps it takes between
// connecting and disconnecting.
type visit struct {
	ctx   event.Context
	steps []step
}

const (
	panZoomsPerVisit = 10
	picksPerZoom     = 3
	viewSide         = 250.0
	// editKeep is how many transactions an inserted pole lives: transaction
	// k deletes the pole transaction k-editKeep inserted, so the extension
	// stays the same size.
	editKeep = 64
)

// userContexts are the contexts sessions draw from: Figure 6's juliano, a
// generic user, and 16 users with generated directives.
func userContexts() []event.Context {
	ctxs := []event.Context{
		{User: "juliano", Application: "pole_manager"},
		{User: "maria", Application: "pole_manager"},
	}
	return append(ctxs, workload.Contexts(16)...)
}

// stream is one closed-loop user's deterministic sequence of visits.
type stream struct {
	rng  *rand.Rand
	pan  bool
	ctxs []event.Context
	area geom.Rect
}

func newStream(seed int64, user int, pan bool, area geom.Rect) *stream {
	return &stream{
		rng:  rand.New(rand.NewSource(seed*7919 + int64(user))),
		pan:  pan,
		ctxs: userContexts(),
		area: area,
	}
}

// next generates the following visit: the §4 browsing session (schema, then
// twice a class and three of its instances), or ten map zooms with three
// instance picks each.
func (s *stream) next() visit {
	v := visit{ctx: s.ctxs[s.rng.Intn(len(s.ctxs))]}
	if !s.pan {
		for _, st := range workload.BrowseTrace(s.rng.Int63(), 2, 3) {
			switch st.Kind {
			case "schema":
				v.steps = append(v.steps, step{op: opSchema})
			case "class":
				v.steps = append(v.steps, step{op: opClass, class: st.Class})
			default:
				v.steps = append(v.steps, step{op: opInstance, class: st.Class, n: st.Index})
			}
		}
		return v
	}
	for i := 0; i < panZoomsPerVisit; i++ {
		x := s.area.Min.X + s.rng.Float64()*(s.area.Width()-viewSide)
		y := s.area.Min.Y + s.rng.Float64()*(s.area.Height()-viewSide)
		v.steps = append(v.steps, step{op: opZoom, view: geom.R(x, y, x+viewSide, y+viewSide)})
		for j := 0; j < picksPerZoom; j++ {
			v.steps = append(v.steps, step{op: opPick, n: s.rng.Intn(1 << 20)})
		}
	}
	return v
}

// network is what the users and the editor know of the generated data.
type network struct {
	ext       map[string][]catalog.OID // class extensions, for instance steps
	maxOID    catalog.OID              // the largest generated OID
	poles     []catalog.OID
	suppliers []catalog.OID
	zones     []geom.Rect
	area      geom.Rect
	poleAttrs []string // Pole's attributes in value order
}

func newNetwork(pn *workload.PhoneNet, zonesPerSide int, db *geodb.DB) (*network, error) {
	n := &network{
		ext:       map[string][]catalog.OID{"Pole": pn.Poles, "Duct": pn.Ducts, "Zone": pn.Zones},
		poles:     pn.Poles,
		suppliers: pn.Suppliers,
		area:      pn.Bounds,
	}
	for _, ids := range [][]catalog.OID{pn.Poles, pn.Ducts, pn.Zones, pn.Suppliers} {
		for _, id := range ids {
			n.maxOID = max(n.maxOID, id)
		}
	}
	side := pn.Bounds.Width() / float64(zonesPerSide)
	for zy := 0; zy < zonesPerSide; zy++ {
		for zx := 0; zx < zonesPerSide; zx++ {
			x, y := pn.Bounds.Min.X+float64(zx)*side, pn.Bounds.Min.Y+float64(zy)*side
			n.zones = append(n.zones, geom.R(x, y, x+side, y+side))
		}
	}
	sc, err := db.Catalog().Schema(workload.SchemaName)
	if err != nil {
		return nil, err
	}
	attrs, err := sc.EffectiveAttrs("Pole")
	if err != nil {
		return nil, err
	}
	for _, a := range attrs {
		n.poleAttrs = append(n.poleAttrs, a.Name)
	}
	return n, nil
}

// user drives one session through its steps.
type user struct {
	sess *ui.Session
	net  *network
	// visible are the generated poles the last zoom showed. Picks choose
	// among them only: the editor never deletes a generated pole, so a
	// pick cannot legitimately miss.
	visible []catalog.OID
}

// errRace marks the zoom that lost the pan/delete race in
// geodb.InstancesInWindow: the R-tree search and the per-instance lookups
// run under separate read locks, so a pole deleted in between fails the
// whole zoom with "no such instance".
var errRace = errors.New("zoom raced a delete")

// do performs one step and returns the window with the name it must have.
// A pick with no generated pole in view performs nothing (nil window).
// races counts zoom attempts that lost the race and were reissued.
func (u *user) do(st step) (win *uikit.Widget, want string, races int, err error) {
	switch st.op {
	case opSchema:
		win, err = u.sess.OpenSchema(workload.SchemaName)
		return win, "schema:" + workload.SchemaName, 0, err
	case opClass:
		win, err = u.sess.OpenClass(workload.SchemaName, st.class)
		return win, "classset:" + st.class, 0, err
	case opInstance:
		ext := u.net.ext[st.class]
		oid := ext[st.n%len(ext)]
		win, err = u.sess.OpenInstance(oid)
		return win, fmt.Sprintf("instance:%s:%d", st.class, oid), 0, err
	case opZoom:
		for attempt := 0; attempt < 3; attempt++ {
			win, err = u.sess.OpenClassZoomed(workload.SchemaName, "Pole", st.view)
			if err == nil || !strings.Contains(err.Error(), geodb.ErrNoInstance.Error()) {
				break
			}
			races++
		}
		if err != nil && races > 0 {
			err = fmt.Errorf("%w: %v", errRace, err)
		}
		u.visible = u.visible[:0]
		if err == nil {
			if area := win.Find("map"); area != nil {
				for _, sh := range area.Shapes {
					if oid := catalog.OID(sh.OID); oid <= u.net.maxOID {
						u.visible = append(u.visible, oid)
					}
				}
			}
		}
		return win, "classset:Pole", races, err
	default: // opPick
		if len(u.visible) == 0 {
			return nil, "", 0, nil
		}
		oid := u.visible[st.n%len(u.visible)]
		win, err = u.sess.OpenInstance(oid)
		return win, fmt.Sprintf("instance:Pole:%d", oid), 0, err
	}
}

// tally is what one load goroutine observed; times are offsets from the
// start of the load.
type tally struct {
	inter   []sample // completed interactions
	commits []sample // acknowledged commits, timed from their due time
	late    []sample // how late the editor sent each commit
	failed  []sample // failed operations (errors and wrong replies)
	races   []sample // zoom attempts reissued after the pan/delete race
	wrong   int      // wrong replies, any time
	errs    map[string]string
}

// fail records a failed operation and keeps the first error of its kind.
func (t *tally) fail(at time.Duration, kind string, err error) {
	t.failed = append(t.failed, sample{end: at})
	if t.errs == nil {
		t.errs = map[string]string{}
	}
	if _, ok := t.errs[kind]; !ok {
		t.errs[kind] = err.Error()
	}
}

func (t *tally) merge(o *tally) {
	t.inter = append(t.inter, o.inter...)
	t.commits = append(t.commits, o.commits...)
	t.late = append(t.late, o.late...)
	t.failed = append(t.failed, o.failed...)
	t.races = append(t.races, o.races...)
	t.wrong += o.wrong
	for k, v := range o.errs {
		if t.errs == nil {
			t.errs = map[string]string{}
		}
		if _, ok := t.errs[k]; !ok {
			t.errs[k] = v
		}
	}
}

// runReader is one closed-loop user: visit after visit, each on a fresh
// session, until ctx ends. Traced, every interaction roots a span tree.
func runReader(ctx context.Context, s *system, tcp bool, st *stream, nw *network, pc *pacer, out *tally) {
	var cur obs.SpanContext
	root := func(name string) span {
		sp := s.t.begin(name, obs.SpanContext{})
		cur = sp.ctx()
		return sp
	}
	for ctx.Err() == nil {
		v := st.next()
		pc.enter()
		sess, closeFn, err := s.open(v.ctx, tcp, &cur)
		if err != nil {
			pc.exit()
			out.fail(time.Since(pc.start), "dial", err)
			continue
		}
		sp := root("ui.connect")
		err = sess.Connect()
		s.t.end(sp)
		if err != nil {
			closeFn()
			pc.exit()
			out.fail(time.Since(pc.start), "connect", err)
			continue
		}
		pc.exit()
		u := &user{sess: sess, net: nw}
		for _, stp := range v.steps {
			if ctx.Err() != nil {
				break
			}
			pc.enter()
			sp := root("ui." + stp.op.String())
			t0 := time.Now()
			win, want, races, err := u.do(stp)
			var text string
			if win != nil {
				rs := s.t.begin("render.text", cur)
				text = render.Text(win)
				s.t.end(rs)
			}
			t1 := time.Now()
			s.t.end(sp)
			pc.exit()
			at := t1.Sub(pc.start)
			for i := 0; i < races; i++ {
				out.races = append(out.races, sample{end: at})
			}
			switch {
			case err != nil:
				out.fail(at, stp.op.String()+" error", err)
			case win == nil:
				continue // nothing to pick
			case win.Kind != uikit.KindWindow || win.Name != want || text == "":
				out.wrong++
				out.fail(at, "wrong window", fmt.Errorf("%s step returned %s %q, want window %q",
					stp.op, win.Kind, win.Name, want))
			default:
				out.inter = append(out.inter, sample{end: at, lat: t1.Sub(t0)})
			}
		}
		pc.enter()
		closeFn()
		pc.exit()
	}
}

// editor generates the open-loop edit stream and remembers what every
// acknowledged transaction left in the database.
type editor struct {
	rng  *rand.Rand
	net  *network
	k    int
	ring [editKeep]catalog.OID // the pole transaction k inserted, at k%editKeep
	want map[catalog.OID]string
	gone map[catalog.OID]bool
}

func newEditor(seed int64, nw *network) *editor {
	return &editor{
		rng:  rand.New(rand.NewSource(seed*7919 - 1)),
		net:  nw,
		want: map[catalog.OID]string{},
		gone: map[catalog.OID]bool{},
	}
}

// pole generates a full Pole value vector at a random point strictly inside
// a random zone, so the pole-in-zone constraint admits it.
func (e *editor) pole(note string) []catalog.Value {
	z := e.net.zones[e.rng.Intn(len(e.net.zones))]
	pt := geom.Pt(z.Min.X+1+e.rng.Float64()*(z.Width()-2), z.Min.Y+1+e.rng.Float64()*(z.Height()-2))
	named := map[string]catalog.Value{
		"pole_type": catalog.IntVal(int64(e.k % 4)),
		"pole_composition": catalog.TupleVal(catalog.TextVal("steel"),
			catalog.FloatVal(0.2+e.rng.Float64()*0.3), catalog.FloatVal(8+e.rng.Float64()*4)),
		"pole_supplier": catalog.RefVal(e.net.suppliers[e.k%len(e.net.suppliers)]),
		"pole_location": catalog.GeomVal(pt),
		"pole_historic": catalog.TextVal(fmt.Sprintf("%s by txn %d", note, e.k)),
	}
	vals := make([]catalog.Value, len(e.net.poleAttrs))
	for i, a := range e.net.poleAttrs {
		vals[i] = named[a]
	}
	return vals
}

// next builds transaction k: move a generated pole, insert a pole, and
// delete the pole inserted editKeep transactions earlier.
func (e *editor) next() []ui.TxnOp {
	ops := []ui.TxnOp{
		{Kind: ui.TxnUpdate, OID: e.net.poles[e.rng.Intn(len(e.net.poles))], Values: e.pole("moved")},
		{Kind: ui.TxnInsert, Schema: workload.SchemaName, Class: "Pole", Values: e.pole("inserted")},
	}
	if old := e.ring[e.k%editKeep]; old != 0 {
		ops = append(ops, ui.TxnOp{Kind: ui.TxnDelete, OID: old})
	}
	return ops
}

// acked records transaction k's outcome and advances to k+1.
func (e *editor) acked(ops []ui.TxnOp, oids []catalog.OID, err error) {
	slot := &e.ring[e.k%editKeep]
	e.k++
	if err != nil {
		*slot = 0 // the pole it would have deleted stays, and stays expected
		return
	}
	e.want[ops[0].OID] = valuesKey(ops[0].Values)
	e.want[oids[1]] = valuesKey(ops[1].Values)
	if len(ops) == 3 {
		delete(e.want, ops[2].OID)
		e.gone[ops[2].OID] = true
	}
	*slot = oids[1]
}

func valuesKey(vs []catalog.Value) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = v.String()
	}
	return strings.Join(parts, "|")
}

// runEditor sends transaction k at k/rate on the load clock whether or not
// earlier ones were acknowledged in time (open loop), and times each from its
// due time, so a stall is charged to every transaction it delays. The load
// clock stops while the pacer pauses the load, so a pause delays no
// transaction. Traced (t non-nil), each commit roots a span tree and *cur
// names the root for cm.
func runEditor(ctx context.Context, cm ui.TxnMutator, t *tracer, cur *obs.SpanContext, ed *editor, rate int, pc *pacer, out *tally) {
	period := time.Second / time.Duration(rate)
	tick := time.NewTimer(0)
	defer tick.Stop()
	who := event.Context{User: "maria", Application: "pole_manager"}
	for i := 0; ; i++ {
		due := time.Duration(i) * period
		// A pause that starts during the wait moves the due time away.
		for wait := due - pc.loadNow(); wait > 0; wait = due - pc.loadNow() {
			tick.Reset(wait)
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
		}
		if ctx.Err() != nil {
			return
		}
		ops := ed.next()
		pc.enter()
		sp := t.begin("edit.commit", obs.SpanContext{})
		*cur = sp.ctx()
		sent := pc.loadNow()
		oids, err := cm.CommitTxn(who, ops)
		ack := pc.loadNow()
		t.end(sp)
		pc.exit()
		ed.acked(ops, oids, err)
		at := time.Since(pc.start)
		out.late = append(out.late, sample{end: at, lat: sent - due})
		if err != nil {
			out.fail(at, "commit error", err)
			continue
		}
		out.commits = append(out.commits, sample{end: at, lat: ack - due})
	}
}

// runLoad runs the workload's users (and editor) against s for d, pausing
// them for the reference loop every sliceLoad, and returns what they
// observed with the pacer that holds the load's start and the host's speeds.
// mon, when set, is started with the same start time and runs beside the
// load.
func runLoad(s *system, w workloadDef, nw *network, ed *editor, seed int64, h *host, d time.Duration, mon func(start time.Time)) (*tally, *pacer) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	pc := newPacer(time.Now())
	tallies := make([]*tally, w.users+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		pc.run(ctx, h)
	}()
	for i := 0; i < w.users; i++ {
		tallies[i] = &tally{}
		st := newStream(seed, i, w.pan, nw.area)
		wg.Add(1)
		go func(out *tally) {
			defer wg.Done()
			runReader(ctx, s, w.tcp, st, nw, pc, out)
		}(tallies[i])
	}
	tallies[w.users] = &tally{}
	if w.editRate > 0 {
		var cur obs.SpanContext
		cm, closeFn, err := s.committer(&cur)
		if err != nil {
			tallies[w.users].fail(0, "dial", err)
		} else {
			defer closeFn()
			wg.Add(1)
			go func(out *tally) {
				defer wg.Done()
				runEditor(ctx, cm, s.t, &cur, ed, w.editRate, pc, out)
			}(tallies[w.users])
		}
	}
	if mon != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mon(pc.start)
		}()
	}
	wg.Wait()
	all := &tally{}
	for _, t := range tallies {
		all.merge(t)
	}
	return all, pc
}
