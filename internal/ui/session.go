package ui

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/builder"
	"repro/internal/catalog"
	"repro/internal/event"
	"repro/internal/geodb"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/render"
	"repro/internal/spec"
	"repro/internal/uikit"
)

// Errors returned by the session dispatcher.
var (
	ErrNoWindow     = errors.New("ui: no such window")
	ErrNotConnected = errors.New("ui: session not connected")
)

// mInteractions counts dispatched interactions across every session (the
// per-session count stays in Session.Interactions). Window-build latency is
// recorded by the builder package under gis_ui_window_build_seconds.
var mInteractions = obs.Default().Counter("gis_ui_interactions_total")

// Session is one user's interaction with the GIS: it owns the window
// hierarchy, the interaction context and the dispatcher. It is the paper's
// "generic interface control module": one generic model builds every window
// kind, and customization happens transparently underneath it.
//
// Sessions are single-goroutine by design, mirroring a GUI event loop; each
// concurrent user gets a Session of their own over a shared Backend.
type Session struct {
	backend  Backend
	builder  *builder.Builder
	registry *uikit.Registry
	ctx      event.Context

	// tracer roots one span per user interaction; every database event the
	// interaction produces carries that identity in its context, so the
	// whole tree — across the wire under weak integration — shares one
	// trace ID. Nil until SetTracer; all span operations are nil-safe.
	tracer *obs.Tracer

	connected bool
	windows   map[string]*uikit.Widget
	order     []string
	parents   map[string]string // child window -> parent window

	// trace records dispatcher decisions for the explanation mode.
	trace []string

	// scenario is the active simulation workspace, if any.
	scenario *Scenario

	// stale tracks windows invalidated by database updates (view-refresh
	// rules; see refresh.go).
	stale staleSet

	// Interactions counts dispatched user interactions (B4 reports).
	Interactions uint64
}

// NewSession creates a session for the given context. It installs the
// default callback set so the generic interface is usable immediately.
func NewSession(b Backend, bld *builder.Builder, ctx event.Context) *Session {
	s := &Session{
		backend:  b,
		builder:  bld,
		registry: uikit.NewRegistry(),
		ctx:      ctx,
		windows:  map[string]*uikit.Widget{},
		parents:  map[string]string{},
	}
	s.installDefaultCallbacks()
	return s
}

// Context returns the session's interaction context.
func (s *Session) Context() event.Context { return s.ctx }

// SetTracer installs the tracer that roots one span per interaction.
func (s *Session) SetTracer(t *obs.Tracer) { s.tracer = t }

// startInteraction opens the root span of one user interaction and returns
// the interaction context carrying its trace identity. With no tracer (or a
// detached one) the span is nil and the context is the session's own.
func (s *Session) startInteraction(name string) (*obs.Span, event.Context) {
	sp := s.tracer.Start("ui." + name)
	ctx := s.ctx
	ctx.Trace = sp.Context()
	return sp, ctx
}

// Registry exposes the callback registry so applications can register the
// callbacks their customizations name (e.g. composed_text.notify).
func (s *Session) Registry() *uikit.Registry { return s.registry }

// Connect attaches the session to the database.
func (s *Session) Connect() error {
	sp, ctx := s.startInteraction("connect")
	err := s.backend.Connect(ctx)
	sp.SetError(err).Finish()
	if err != nil {
		return err
	}
	s.connected = true
	s.tracef("connected as %s", s.ctx)
	return nil
}

// OpenSchema performs the connect-time interaction of §4: a Get_Schema event
// for the named schema, building the Schema window. When a customization
// answers Null display with a class list, the dispatcher auto-opens those
// Class set windows — the paper's R1 action "Build_Window(Schema, phone_net,
// NULL); Get_Class(Pole)".
func (s *Session) OpenSchema(schema string) (_ *uikit.Widget, rerr error) {
	if !s.connected {
		return nil, ErrNotConnected
	}
	s.Interactions++
	mInteractions.Inc()
	sp, ctx := s.startInteraction("open_schema")
	sp.Set("schema", schema)
	defer func() { sp.SetError(rerr).Finish() }()
	info, cust, err := s.backend.GetSchema(ctx, schema)
	if err != nil {
		return nil, err
	}
	var sc *spec.SchemaCust
	if cust != nil && cust.Level == spec.LevelSchema {
		sc = &cust.Schema
		s.tracef("Get_Schema(%s): customization from rule %q (display %s)",
			schema, cust.Origin, sc.Display)
	} else {
		s.tracef("Get_Schema(%s): generic default", schema)
	}
	win, err := s.builder.BuildSchemaWindow(info, sc)
	if err != nil {
		return nil, err
	}
	s.addWindow(win, "")
	if sc != nil && sc.Display == spec.DisplayNull {
		// Auto-opened class windows belong to the same interaction, so they
		// inherit its trace context instead of rooting traces of their own.
		for _, class := range sc.Classes {
			if _, err := s.openClassCtx(ctx, win.Name, schema, class); err != nil {
				return nil, err
			}
		}
	}
	return win, nil
}

// OpenClass performs a Get_Class interaction, building a Class set window
// under the schema window.
func (s *Session) OpenClass(schema, class string) (*uikit.Widget, error) {
	if !s.connected {
		return nil, ErrNotConnected
	}
	return s.openClassUnder("schema:"+schema, schema, class)
}

func (s *Session) openClassUnder(parent, schema, class string) (_ *uikit.Widget, rerr error) {
	sp, ctx := s.startInteraction("open_class")
	sp.Set("class", schema+"."+class)
	defer func() { sp.SetError(rerr).Finish() }()
	return s.openClassCtx(ctx, parent, schema, class)
}

// openClassCtx is the shared Get_Class interaction body, parameterized on
// the interaction context so nested opens join their initiator's trace.
func (s *Session) openClassCtx(ctx event.Context, parent, schema, class string) (*uikit.Widget, error) {
	s.Interactions++
	mInteractions.Inc()
	data, cust, err := s.backend.GetClass(ctx, schema, class)
	if err != nil {
		return nil, err
	}
	var cc *spec.ClassCust
	if cust != nil && cust.Level == spec.LevelClass {
		cc = &cust.Class
		s.tracef("Get_Class(%s): customization from rule %q (control %s, presentation %s)",
			class, cust.Origin, cc.Control, cc.Presentation)
	} else {
		s.tracef("Get_Class(%s): generic default", class)
	}
	win, err := s.builder.BuildClassWindow(data.Info, data.Instances, cc)
	if err != nil {
		return nil, err
	}
	win.SetProp("schema", schema)
	s.addWindow(win, parent)
	return win, nil
}

// OpenInstance performs a Get_Value interaction, building an Instance window
// under its Class set window.
func (s *Session) OpenInstance(oid catalog.OID) (_ *uikit.Widget, rerr error) {
	if !s.connected {
		return nil, ErrNotConnected
	}
	s.Interactions++
	mInteractions.Inc()
	sp, ctx := s.startInteraction("open_instance")
	sp.Setf("oid", "%d", oid)
	defer func() { sp.SetError(rerr).Finish() }()
	in, cust, err := s.backend.GetValue(ctx, oid)
	if err != nil {
		return nil, err
	}
	var ic *spec.InstanceCust
	if cust != nil && cust.Level == spec.LevelInstance {
		ic = &cust.Instance
		s.tracef("Get_Value(%d): customization from rule %q (%d attribute clauses)",
			oid, cust.Origin, len(ic.Attrs))
	} else {
		s.tracef("Get_Value(%d): generic default", oid)
	}
	win, err := s.builder.BuildInstanceWindow(in, ic)
	if err != nil {
		return nil, err
	}
	s.addWindow(win, "classset:"+in.Class)
	return win, nil
}

// OpenClassZoomed performs a viewport-restricted Get_Class interaction: the
// Class set window shows only the instances intersecting the world-space
// rectangle (the map zoom/pan path, served by the spatial index and — under
// weak integration — shipping only the visible instances). The window
// replaces any open window of the same class and records its viewport.
func (s *Session) OpenClassZoomed(schema, class string, viewport geom.Rect) (_ *uikit.Widget, rerr error) {
	if !s.connected {
		return nil, ErrNotConnected
	}
	s.Interactions++
	mInteractions.Inc()
	sp, ctx := s.startInteraction("open_class_zoomed")
	sp.Set("class", schema+"."+class)
	defer func() { sp.SetError(rerr).Finish() }()
	data, cust, err := s.backend.GetClassWindowed(ctx, schema, class, viewport)
	if err != nil {
		return nil, err
	}
	var cc *spec.ClassCust
	if cust != nil && cust.Level == spec.LevelClass {
		cc = &cust.Class
	}
	win, err := s.builder.BuildClassWindow(data.Info, data.Instances, cc)
	if err != nil {
		return nil, err
	}
	win.SetProp("schema", schema)
	win.SetProp("viewport", viewport.WKT())
	s.addWindow(win, "schema:"+schema)
	s.tracef("Get_Class(%s) zoomed to %v: %d instances visible",
		class, viewport, len(data.Instances))
	return win, nil
}

// Analyze runs an analysis-mode query: a filtered selection whose result is
// presented as a Class set window restricted to the matching instances. The
// filters are evaluated by the backend (server-side under weak integration,
// so only matches cross the wire); the Get_Class interaction still runs so
// class-window customization rules apply to the analysis window too.
func (s *Session) Analyze(schema, class string, filters []geodb.Filter) (_ *uikit.Widget, rerr error) {
	if !s.connected {
		return nil, ErrNotConnected
	}
	s.Interactions++
	mInteractions.Inc()
	sp, ctx := s.startInteraction("analyze")
	sp.Set("class", schema+"."+class)
	defer func() { sp.SetError(rerr).Finish() }()
	data, cust, err := s.backend.GetClass(ctx, schema, class)
	if err != nil {
		return nil, err
	}
	kept, err := s.backend.SelectWhere(ctx, schema, class, filters)
	if err != nil {
		return nil, err
	}
	s.tracef("Analyze(%s): %d instances match %d filters", class, len(kept), len(filters))
	var cc *spec.ClassCust
	if cust != nil && cust.Level == spec.LevelClass {
		cc = &cust.Class
	}
	shapes := make([]geodb.Shape, 0, len(kept))
	for _, in := range kept {
		if sh, ok := in.Shape(); ok {
			shapes = append(shapes, sh)
		}
	}
	win, err := s.builder.BuildClassWindow(data.Info, shapes, cc)
	if err != nil {
		return nil, err
	}
	win.Name = "analysis:" + class
	win.SetProp("title", fmt.Sprintf("Analysis %s (%d matches)", class, len(kept)))
	win.SetProp("schema", schema)
	s.addWindow(win, "schema:"+schema)
	return win, nil
}

func (s *Session) addWindow(w *uikit.Widget, parent string) {
	if _, ok := s.windows[w.Name]; !ok {
		s.order = append(s.order, w.Name)
	}
	s.windows[w.Name] = w
	if parent != "" {
		s.parents[w.Name] = parent
	}
	s.tracef("window %q added to hierarchy (parent %q)", w.Name, parent)
}

// Window returns an open window by name.
func (s *Session) Window(name string) (*uikit.Widget, error) {
	w, ok := s.windows[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoWindow, name)
	}
	return w, nil
}

// Windows lists open window names in opening order.
func (s *Session) Windows() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// CloseWindow removes a window and, preserving the hierarchy invariant,
// every window transitively parented under it.
func (s *Session) CloseWindow(name string) error {
	if _, ok := s.windows[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNoWindow, name)
	}
	doomed := map[string]bool{name: true}
	changed := true
	for changed {
		changed = false
		for child, parent := range s.parents {
			if doomed[parent] && !doomed[child] {
				doomed[child] = true
				changed = true
			}
		}
	}
	var kept []string
	for _, n := range s.order {
		if doomed[n] {
			delete(s.windows, n)
			delete(s.parents, n)
			s.tracef("window %q closed", n)
		} else {
			kept = append(kept, n)
		}
	}
	s.order = kept
	return nil
}

// Screen renders all open windows (hidden ones summarized) — the "display"
// the user sees.
func (s *Session) Screen() string {
	ws := make([]*uikit.Widget, 0, len(s.order))
	for _, n := range s.order {
		ws = append(ws, s.windows[n])
	}
	return render.Screen(ws...)
}

// Explain returns the dispatcher trace: which events fired, which rules
// customized which windows — the explanation interaction mode ("users want
// to know why and how the system presented a specific answer").
func (s *Session) Explain() []string {
	out := make([]string, len(s.trace))
	copy(out, s.trace)
	return out
}

func (s *Session) tracef(format string, args ...any) {
	s.trace = append(s.trace, fmt.Sprintf(format, args...))
}

// Interact dispatches a user interaction on a widget of an open window: the
// interface event IEi of §3.3. The bound callback runs through the
// registry; the default callbacks turn selections into the corresponding
// database interactions (DBEi).
func (s *Session) Interact(windowName, widgetName, eventName string, payload any) error {
	win, err := s.Window(windowName)
	if err != nil {
		return err
	}
	w := win.Find(widgetName)
	if w == nil {
		return fmt.Errorf("%w: widget %q in window %q", ErrNoWindow, widgetName, windowName)
	}
	s.Interactions++
	mInteractions.Inc()
	s.tracef("interaction %s on %s/%s", eventName, windowName, widgetName)
	return s.registry.Trigger(w, eventName, &Interaction{
		Session: s,
		Window:  win,
		Payload: payload,
	})
}

// Interaction is the payload handed to callbacks: the session, the window
// the interaction happened in, and the application payload.
type Interaction struct {
	Session *Session
	Window  *uikit.Widget
	Payload any
}

// installDefaultCallbacks registers the generic behaviour of the default
// interface: selecting a class in a Schema window opens its Class set
// window, picking an instance in a map opens its Instance window, close
// buttons close their window.
func (s *Session) installDefaultCallbacks() {
	s.registry.Register("schema.select_class", func(w *uikit.Widget, payload any) error {
		ia, ok := payload.(*Interaction)
		if !ok {
			return fmt.Errorf("ui: schema.select_class needs an Interaction payload")
		}
		class, ok := ia.Payload.(string)
		if !ok {
			return fmt.Errorf("ui: schema.select_class needs a class name payload")
		}
		class = strings.TrimSpace(class)
		schema := strings.TrimPrefix(ia.Window.Name, "schema:")
		_, err := ia.Session.openClassUnder(ia.Window.Name, schema, class)
		return err
	})
	s.registry.Register("classset.pick_instance", func(w *uikit.Widget, payload any) error {
		ia, ok := payload.(*Interaction)
		if !ok {
			return fmt.Errorf("ui: classset.pick_instance needs an Interaction payload")
		}
		var oid catalog.OID
		switch v := ia.Payload.(type) {
		case catalog.OID:
			oid = v
		case uint64:
			oid = catalog.OID(v)
		case int:
			oid = catalog.OID(v)
		case string:
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return fmt.Errorf("ui: bad instance id %q", v)
			}
			oid = catalog.OID(n)
		default:
			return fmt.Errorf("ui: classset.pick_instance needs an instance id payload")
		}
		_, err := ia.Session.OpenInstance(oid)
		return err
	})
	closeCB := func(w *uikit.Widget, payload any) error {
		ia, ok := payload.(*Interaction)
		if !ok {
			return fmt.Errorf("ui: close needs an Interaction payload")
		}
		return ia.Session.CloseWindow(ia.Window.Name)
	}
	s.registry.Register("classset.close", closeCB)
	s.registry.Register("instance.close", closeCB)
	s.registry.Register("schema.quit", closeCB)
	// Zooming a class window re-queries its class within the picked
	// viewport (payload: a geom.Rect in world coordinates).
	s.registry.Register("classset.zoom", func(w *uikit.Widget, payload any) error {
		ia, ok := payload.(*Interaction)
		if !ok {
			return fmt.Errorf("ui: classset.zoom needs an Interaction payload")
		}
		viewport, ok := ia.Payload.(geom.Rect)
		if !ok {
			// Zoom without a viewport is the generic no-op (a real GUI
			// would rubber-band one).
			ia.Session.tracef("zoom without viewport on %s ignored", ia.Window.Name)
			return nil
		}
		schema := ia.Window.Prop("schema")
		class := strings.TrimPrefix(ia.Window.Name, "classset:")
		_, err := ia.Session.OpenClassZoomed(schema, class, viewport)
		return err
	})
	// Benign generic behaviours.
	for _, name := range []string{"schema.open", "classset.select",
		"classset.focus_class", "instance.apply"} {
		cb := name
		s.registry.Register(cb, func(w *uikit.Widget, payload any) error {
			if ia, ok := payload.(*Interaction); ok {
				ia.Session.tracef("generic callback %s on %s", cb, w.Name)
			}
			return nil
		})
	}
}
