// Package event defines the database event vocabulary shared by the
// geographic DBMS (which emits events) and the active mechanism (which
// intercepts them), plus the synchronous bus connecting the two.
//
// The paper treats a user interaction Ii as two components: an interface
// event IEi (mouse click, key press — handled by callbacks in the uikit
// package) and a database event DBEi. In the exploratory mode DBEi is one of
// the primitives Get_Schema, Get_Class and Get_Value; update-capable modes
// add the Pre/Post mutation events that the topological-constraint rules of
// [11] hook. Every event carries the interaction context
// <user, category, application> against which customization rule conditions
// are evaluated.
package event

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/spec"
)

// Kind enumerates the database events the active mechanism can intercept.
type Kind uint8

// The event vocabulary.
const (
	// Connect fires when a user session attaches to a database.
	Connect Kind = iota + 1
	// GetSchema, GetClass and GetValue are the exploratory-mode retrieval
	// primitives of §3.3.
	GetSchema
	GetClass
	GetValue
	// Mutation events, emitted around updates so constraint rules can veto
	// (Pre*) or react (Post*).
	PreInsert
	PostInsert
	PreUpdate
	PostUpdate
	PreDelete
	PostDelete
	// External represents an application-defined event (the paper notes
	// events "may be internal to the database ... or external").
	External
)

// String returns the paper's spelling of the event name.
func (k Kind) String() string {
	switch k {
	case Connect:
		return "Connect"
	case GetSchema:
		return "Get_Schema"
	case GetClass:
		return "Get_Class"
	case GetValue:
		return "Get_Value"
	case PreInsert:
		return "Pre_Insert"
	case PostInsert:
		return "Post_Insert"
	case PreUpdate:
		return "Pre_Update"
	case PostUpdate:
		return "Post_Update"
	case PreDelete:
		return "Pre_Delete"
	case PostDelete:
		return "Post_Delete"
	case External:
		return "External"
	default:
		return fmt.Sprintf("event.Kind(%d)", uint8(k))
	}
}

// ParseKind resolves an event name (case-insensitive, underscore-tolerant)
// to its Kind.
func ParseKind(name string) (Kind, bool) {
	switch strings.ToLower(strings.ReplaceAll(name, "_", "")) {
	case "connect":
		return Connect, true
	case "getschema":
		return GetSchema, true
	case "getclass":
		return GetClass, true
	case "getvalue", "getinstance":
		return GetValue, true
	case "preinsert":
		return PreInsert, true
	case "postinsert":
		return PostInsert, true
	case "preupdate":
		return PreUpdate, true
	case "postupdate":
		return PostUpdate, true
	case "predelete":
		return PreDelete, true
	case "postdelete":
		return PostDelete, true
	case "external":
		return External, true
	default:
		return 0, false
	}
}

// Context describes the user working environment a rule condition checks.
// The paper restricts context to <user class, application domain> to avoid
// the exponential blow-up of full mental models, and notes it "can
// conceivably be extended to other contextual data (e.g., geographic scale,
// time framework)" — the Extra map carries those extensions.
type Context struct {
	// User is the individual user name (most specific).
	User string
	// Category is the user class/stereotype the application designer
	// partitioned users into.
	Category string
	// Application is the application domain.
	Application string
	// Extra holds extended context dimensions such as "scale" or "epoch".
	Extra map[string]string

	// Trace is the distributed-tracing context of the interaction that
	// produced this event. It rides the Context because the context already
	// flows from the UI through every primitive, event and rule dispatch —
	// but it is identity, not context: rule matching and specificity ignore
	// it, and it does not serialize here (the wire protocol carries it in
	// an explicit request field instead).
	Trace obs.SpanContext `json:"-"`

	// Selected is the reply slot of one retrieval call: the caller points
	// it at a local value before calling the primitive, and the active
	// engine writes the customization it selects for the event dispatched
	// at depth 0 there, so the (data, presentation) pair of §3.3 returns
	// with the call that asked for it. Like Trace it belongs to one call:
	// rule matching and specificity ignore it, and it never serializes.
	Selected *spec.Customization `json:"-"`
}

// Specificity scores how restrictive the context is; the active mechanism
// executes only the highest-priority (most specific) matching customization
// rule. User outranks category, which outranks application, which outranks
// each extra dimension; the weights make specificity a total order aligned
// with the paper's example (generic users < category of users < particular
// user within the category).
func (c Context) Specificity() int {
	s := 0
	if c.User != "" {
		s += 100
	}
	if c.Category != "" {
		s += 10
	}
	if c.Application != "" {
		s += 1
	}
	s += len(c.Extra)
	return s
}

// Matches reports whether the concrete context cc falls within pattern c.
// Empty pattern components are wildcards. Extra entries in the pattern must
// all be present and equal in the concrete context.
func (c Context) Matches(cc Context) bool {
	if c.User != "" && c.User != cc.User {
		return false
	}
	if c.Category != "" && c.Category != cc.Category {
		return false
	}
	if c.Application != "" && c.Application != cc.Application {
		return false
	}
	for k, v := range c.Extra {
		if cc.Extra[k] != v {
			return false
		}
	}
	return true
}

// String renders the context as the paper writes it: "<user, application>".
func (c Context) String() string {
	parts := []string{}
	if c.User != "" {
		parts = append(parts, c.User)
	}
	if c.Category != "" {
		parts = append(parts, "category:"+c.Category)
	}
	if c.Application != "" {
		parts = append(parts, c.Application)
	}
	for k, v := range c.Extra {
		parts = append(parts, k+"="+v)
	}
	if len(parts) == 0 {
		return "<*>"
	}
	return "<" + strings.Join(parts, ", ") + ">"
}

// Event is a database event flowing through the bus.
type Event struct {
	Kind   Kind
	Schema string
	Class  string
	// Attr is set for attribute-scoped events (e.g. a Get_Value that a
	// presentation rule customizes per attribute).
	Attr string
	// OID identifies the instance for instance-scoped events.
	OID catalog.OID
	// Ctx is the interaction context the event occurred in.
	Ctx Context
	// Old and New carry instance values for mutation events (Old for
	// update/delete, New for insert/update), letting constraint rules
	// inspect the transition without re-reading the database.
	Old, New []catalog.Value
	// Name distinguishes External events.
	Name string
	// View is set on Pre_* events: the database as the announced mutation
	// will see it, which constraint rules read their candidates through.
	View View
}

// View reads the database as a pending mutation will see it: the committed
// state with the earlier ops of the same transaction applied, so a
// constraint check sees what its batch has built so far. geodb's Txn
// implements it; it is declared here because the active mechanism and its
// rules see the database only through events.
type View interface {
	// Geometries calls fn with the OID and geometry of every instance of
	// schema.class whose geometry bounds intersect window.
	Geometries(schema, class string, window geom.Rect, fn func(catalog.OID, geom.Geometry)) error
}

// String summarizes the event for traces (experiment F1 prints these).
func (e Event) String() string {
	var b strings.Builder
	b.WriteString(e.Kind.String())
	if e.Schema != "" {
		fmt.Fprintf(&b, " schema=%s", e.Schema)
	}
	if e.Class != "" {
		fmt.Fprintf(&b, " class=%s", e.Class)
	}
	if e.Attr != "" {
		fmt.Fprintf(&b, " attr=%s", e.Attr)
	}
	if e.OID != 0 {
		fmt.Fprintf(&b, " oid=%d", e.OID)
	}
	if e.Name != "" {
		fmt.Fprintf(&b, " name=%s", e.Name)
	}
	fmt.Fprintf(&b, " ctx=%s", e.Ctx)
	return b.String()
}

// Dim resolves a condition-expression dimension name against the event:
// the builtins user, category and application (from the context), schema,
// class, attr and name (from the event scope), oid (decimal, absent while
// zero), and any extended-context dimension from Ctx.Extra. An empty value
// is reported as absent — the same convention the context pattern matcher
// uses for wildcards. This is the binding rule conditions (active.Rule.Cond)
// are evaluated under.
func (e Event) Dim(name string) (string, bool) {
	var v string
	switch name {
	case "user":
		v = e.Ctx.User
	case "category":
		v = e.Ctx.Category
	case "application":
		v = e.Ctx.Application
	case "schema":
		v = e.Schema
	case "class":
		v = e.Class
	case "attr":
		v = e.Attr
	case "name":
		v = e.Name
	case "oid":
		if e.OID == 0 {
			return "", false
		}
		return strconv.FormatUint(uint64(e.OID), 10), true
	default:
		v = e.Ctx.Extra[name]
	}
	return v, v != ""
}

// Pattern describes a set of events: a kind plus optional scope pins
// (empty components are wildcards). Reaction rules declare the events
// their actions may emit as patterns (active.Rule.Emits); the engine
// enforces the declaration at emission time and the static analyzer
// (internal/ruleanalysis) builds the rule-triggering graph from it.
type Pattern struct {
	Kind   Kind   `json:"kind"`
	Schema string `json:"schema,omitempty"`
	Class  string `json:"class,omitempty"`
	Attr   string `json:"attr,omitempty"`
	// Name pins External events to a particular name.
	Name string `json:"name,omitempty"`
}

// Matches reports whether the concrete event falls within the pattern.
func (p Pattern) Matches(e Event) bool {
	if p.Kind != e.Kind {
		return false
	}
	if p.Schema != "" && p.Schema != e.Schema {
		return false
	}
	if p.Class != "" && p.Class != e.Class {
		return false
	}
	if p.Attr != "" && p.Attr != e.Attr {
		return false
	}
	if p.Name != "" && p.Name != e.Name {
		return false
	}
	return true
}

// String renders the pattern for diagnostics.
func (p Pattern) String() string {
	var b strings.Builder
	b.WriteString(p.Kind.String())
	if p.Schema != "" {
		fmt.Fprintf(&b, " schema=%s", p.Schema)
	}
	if p.Class != "" {
		fmt.Fprintf(&b, " class=%s", p.Class)
	}
	if p.Attr != "" {
		fmt.Fprintf(&b, " attr=%s", p.Attr)
	}
	if p.Name != "" {
		fmt.Fprintf(&b, " name=%s", p.Name)
	}
	return b.String()
}

// Handler processes an event. Returning an error from a Pre* event vetoes
// the mutation; errors from other events propagate to the emitter.
type Handler interface {
	HandleEvent(Event) error
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(Event) error

// HandleEvent implements Handler.
func (f HandlerFunc) HandleEvent(e Event) error { return f(e) }

// Bus is a synchronous publish/subscribe dispatcher. Handlers run in
// subscription order on the emitting goroutine; the first error aborts
// dispatch and is returned to the emitter. Synchronous dispatch is what
// gives the active mechanism its immediate (within-interaction) coupling:
// the customization rule must run before the interface builder assembles
// the window.
type Bus struct {
	handlers []Handler
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{} }

// Subscribe registers a handler for all events. The active engine does its
// own kind/context filtering; keeping the bus unfiltered matches the paper's
// single interception point.
func (b *Bus) Subscribe(h Handler) {
	b.handlers = append(b.handlers, h)
}

// Per-kind dispatch counters, resolved once at init so Emit pays a single
// atomic add. Indexed by Kind (Connect..External); index 0 catches
// out-of-vocabulary kinds.
var emitTotal = func() [External + 1]*obs.Counter {
	var cs [External + 1]*obs.Counter
	cs[0] = obs.Default().Counter(`gis_event_emitted_total{kind="unknown"}`)
	for k := Connect; k <= External; k++ {
		cs[k] = obs.Default().Counter(fmt.Sprintf("gis_event_emitted_total{kind=%q}", k.String()))
	}
	return cs
}()

// Emit dispatches the event to every handler in order.
func (b *Bus) Emit(e Event) error {
	if int(e.Kind) < len(emitTotal) {
		emitTotal[e.Kind].Inc()
	} else {
		emitTotal[0].Inc()
	}
	for _, h := range b.handlers {
		if err := h.HandleEvent(e); err != nil {
			return err
		}
	}
	return nil
}
