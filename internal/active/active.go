// Package active implements the active database mechanism of §3.3: an ECA
// (Event-Condition-Action) rule engine that intercepts the database events
// emitted by the geographic DBMS and, among its rule families, supports the
// paper's new family — interface customization rules.
//
// Rule semantics follow the paper precisely:
//
//   - A rule is "On Event Ei If Condition Cj Then Apply Customization CTn".
//   - Conditions do not check a database state but the user's working
//     environment: a context pattern <user, category, application>.
//   - Several customization rules may match one event (one per context);
//     only the single most specific rule executes. Specificity is the
//     context pattern's restrictiveness (user > category > application),
//     with an explicit Priority field as tiebreak.
//   - Customization rule actions are deliberately limited to "getting a
//     customization for an interface object", which is what makes the rule
//     family confluent (no cascades, no conflicts).
//   - Other families — constraint rules and generic reaction rules — run
//     for every match, may veto mutations (by returning an error from a
//     Pre* event) and may cascade by emitting follow-up events, bounded by
//     a cycle-guarding depth limit.
//
// The dispatch hot path is concurrent and cached (DESIGN.md §10): rule
// buckets are kept pre-sorted at install time so no per-event sort runs, the
// candidate scratch is pooled, and the winning decision for an event shape is
// memoized behind an epoch counter bumped by every rule mutation. Rules with
// a dynamic When predicate mark their event shape uncacheable — correctness
// over speed — and the SelectAll ablation bypasses the cache entirely.
package active

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/ruleanalysis"
	"repro/internal/spec"
)

// Registry handles for the engine's global activity metrics (§ Observability
// in DESIGN.md). Per-engine counts stay on the engine (Stats); these
// aggregate across engines and feed the STATS verb and --metrics endpoint.
var (
	mEvents     = obs.Default().Counter("gis_active_events_total")
	mEvaluated  = obs.Default().Counter("gis_active_rules_evaluated_total")
	mFired      = obs.Default().Counter("gis_active_rules_fired_total")
	mSelected   = obs.Default().Counter("gis_active_customizations_selected_total")
	mSuppressed = obs.Default().Counter("gis_active_customizations_suppressed_total")
	// mFireSeconds times individual rule-action executions.
	mFireSeconds = obs.Default().Histogram("gis_active_rule_fire_seconds", obs.LatencyBuckets)
	// mSpecificity distributes the specificity of winning customization
	// rules (bounds cover Context.Specificity()*8 + scope bits).
	mSpecificity = obs.Default().Histogram("gis_active_selected_specificity",
		[]float64{8, 16, 88, 96, 800, 896})
	// mCascadeDepth distributes nested reaction-emission depth; only nested
	// dispatches (depth > 0) are observed.
	mCascadeDepth = obs.Default().Histogram("gis_active_cascade_depth",
		[]float64{1, 2, 4, 8, 16})

	// Decision-cache traffic (DESIGN.md §10): hits skip the candidate scan,
	// match tests and selection contest entirely; invalidations count rule
	// mutations (each bumps the epoch, aging every cached plan at once);
	// uncacheable counts dispatches that had to bypass the cache because a
	// When-predicate rule or an extended context made the decision dynamic.
	mCacheHits          = obs.Default().Counter("gis_rule_cache_hits_total")
	mCacheMisses        = obs.Default().Counter("gis_rule_cache_misses_total")
	mCacheInvalidations = obs.Default().Counter("gis_rule_cache_invalidations_total")
	mCacheUncacheable   = obs.Default().Counter("gis_rule_cache_uncacheable_total")
	// mPendingDropped counts undelivered customizations evicted from the
	// bounded pending map (a caller dispatched events but never claimed the
	// selections via TakeCustomization).
	mPendingDropped = obs.Default().Counter("gis_rule_pending_dropped_total")
)

// Errors returned by the engine.
var (
	ErrBadRule        = errors.New("active: invalid rule")
	ErrDuplicateRule  = errors.New("active: duplicate rule name")
	ErrUnknownRule    = errors.New("active: unknown rule")
	ErrCascadeLimit   = errors.New("active: cascade depth limit exceeded")
	ErrUndeclaredEmit = errors.New("active: emission not declared in the rule's Emits")
)

// Family partitions the rule set, as §3.3 suggests ("the rule set may be
// partitioned into (at least) two subsets: rules for interface
// customization, and other rules").
type Family uint8

// Rule families.
const (
	// FamilyCustomization rules select presentation directives; one per
	// event, most specific wins.
	FamilyCustomization Family = iota + 1
	// FamilyConstraint rules guard mutations (topological integrity);
	// all matches run and any error vetoes.
	FamilyConstraint
	// FamilyReaction rules are generic ECA reactions (logging, derived
	// updates, view refresh à la Diaz et al.); all matches run.
	FamilyReaction
)

// String names the family.
func (f Family) String() string {
	switch f {
	case FamilyCustomization:
		return "customization"
	case FamilyConstraint:
		return "constraint"
	case FamilyReaction:
		return "reaction"
	default:
		return fmt.Sprintf("Family(%d)", uint8(f))
	}
}

// CustomizationAction computes the customization a rule delivers. It must
// not mutate the database or emit events (the engine does not hand it the
// emit capability, enforcing the paper's no-cascade property structurally).
type CustomizationAction func(e event.Event) (spec.Customization, error)

// ReactionAction reacts to an event. The Emitter lets it cascade — emit
// follow-up events through the engine, which tracks depth.
type ReactionAction func(e event.Event, em Emitter) error

// Emitter re-enters the engine from inside a reaction rule.
type Emitter interface {
	// EmitNested dispatches a follow-up event at the current cascade
	// depth + 1.
	EmitNested(e event.Event) error
}

// Rule is an ECA rule.
type Rule struct {
	// Name uniquely identifies the rule.
	Name string
	// Family selects execution semantics.
	Family Family
	// On is the triggering event kind.
	On event.Kind
	// Schema/Class/Attr scope the rule; empty components are wildcards.
	Schema, Class, Attr string
	// Context is the condition: the context pattern that must cover the
	// event's context.
	Context event.Context
	// Cond is an optional declared condition expression (ruleanalysis
	// condition grammar) over the event's named dimensions, evaluated under
	// event.Dim; empty means true. Unlike the opaque When func the engine
	// can show Cond to the static analyzer, so ambiguity/shadowing/dead-rule
	// checks reason about its satisfiability instead of downgrading to
	// warnings. The engine enforces it at dispatch — the rule matches only
	// when Cond holds — which is what makes those static conclusions sound.
	// A Cond that reads only cache-key dimensions (user, category,
	// application, schema, class, attr, or Extra keys) keeps the rule
	// decision-cacheable; one that reads oid or name is evaluated with the
	// When predicate and makes matching shapes uncacheable.
	Cond string
	// When is an optional extra predicate over the event (nil = true). A
	// non-nil When makes every event shape the rule could statically match
	// uncacheable: the predicate may inspect dynamic event fields (OID,
	// Old/New values), so the winning decision cannot be memoized.
	When func(event.Event) bool
	// Priority breaks specificity ties; higher wins. The compiler fills
	// it from the directive's optional priority clause (zero by default);
	// hand-written rules may use it. Full ties (equal specificity and
	// priority) break deterministically by rule name.
	Priority int
	// Emits declares the event patterns the React action may emit through
	// its Emitter. The engine ENFORCES the declaration: an emission not
	// covered by Emits fails with ErrUndeclaredEmit, so nil means "emits
	// nothing". The static analyzer (ruleanalysis, Engine.CheckSet) builds
	// the rule-triggering graph from these declarations — termination
	// analysis is only as sound as the declarations, which is why they are
	// enforced rather than advisory. Customization rules must leave Emits
	// nil: they never receive an Emitter (the paper's no-cascade property,
	// enforced structurally).
	Emits []event.Pattern
	// Src optionally records where the rule came from (the custlang
	// compiler threads the source clause's position here); static-analysis
	// diagnostics carry it.
	Src ruleanalysis.Position
	// Customize is the action for FamilyCustomization rules.
	Customize CustomizationAction
	// React is the action for FamilyConstraint and FamilyReaction rules.
	React ReactionAction

	// specScore caches specificity() on the engine's stored copy so the
	// selection contest and the pre-sorted bucket order never recompute it
	// on the hot path. Filled by AddRule.
	specScore int
	// cond is the parsed form of Cond; condDynamic marks a condition that
	// reads dimensions outside the decision-cache key (oid, name) and must
	// therefore be evaluated on the When path. Filled by AddRule.
	cond        *ruleanalysis.Cond
	condDynamic bool
}

// matchesStatic reports whether the rule's event pattern, context and
// static condition cover e, ignoring the dynamic predicates (When and a
// cache-dynamic Cond). Every dimension it reads is part of the
// decision-cache key — or an Extra dimension, and Extra-carrying events
// never reach the cache — so its outcome is a pure function of the key.
func (r *Rule) matchesStatic(e event.Event) bool {
	if r.On != e.Kind {
		return false
	}
	if r.Schema != "" && r.Schema != e.Schema {
		return false
	}
	if r.Class != "" && r.Class != e.Class {
		return false
	}
	if r.Attr != "" && r.Attr != e.Attr {
		return false
	}
	if !r.Context.Matches(e.Ctx) {
		return false
	}
	if r.cond != nil && !r.condDynamic {
		return r.cond.Eval(e.Dim)
	}
	return true
}

// matchesDynamic evaluates the predicates excluded from matchesStatic: a
// cache-dynamic condition, then the When func.
func (r *Rule) matchesDynamic(e event.Event) bool {
	if r.condDynamic && !r.cond.Eval(e.Dim) {
		return false
	}
	return r.When == nil || r.When(e)
}

// matches reports whether the rule's event pattern and condition cover e.
func (r *Rule) matches(e event.Event) bool {
	return r.matchesStatic(e) && r.matchesDynamic(e)
}

// specificity orders customization rules: context specificity first, then
// event-scope narrowness, then Priority. It delegates to the shared scoring
// in ruleanalysis so the static analyzer can never drift from the
// dispatcher.
func (r *Rule) specificity() int {
	return ruleanalysis.Specificity(r.Context, r.Schema, r.Class, r.Attr)
}

// beats reports whether a wins the customization selection contest against
// b: higher specificity, then higher priority, then — so selection is
// deterministic regardless of insertion order or Indexed mode — the
// lexicographically smaller name. Both rules must be engine-stored copies
// (AddRule fills specScore).
func beats(a, b *Rule) bool {
	if a.specScore != b.specScore {
		return a.specScore > b.specScore
	}
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	return a.Name < b.Name
}

// othersBefore orders constraint and reaction rules for execution:
// constraints first (a veto must precede side effects), then priority
// descending, then name ascending so execution order is deterministic.
func othersBefore(a, b *Rule) bool {
	if (a.Family == FamilyConstraint) != (b.Family == FamilyConstraint) {
		return a.Family == FamilyConstraint
	}
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	return a.Name < b.Name
}

// emitDeclared reports whether the rule's Emits declaration covers e.
func (r *Rule) emitDeclared(e event.Event) bool {
	for _, p := range r.Emits {
		if p.Matches(e) {
			return true
		}
	}
	return false
}

// analysisInfo converts the rule to its statically analyzable shape.
func (r *Rule) analysisInfo() ruleanalysis.RuleInfo {
	return ruleanalysis.RuleInfo{
		Name:     r.Name,
		Family:   r.Family.String(),
		On:       r.On,
		Schema:   r.Schema,
		Class:    r.Class,
		Attr:     r.Attr,
		Context:  r.Context,
		Priority: r.Priority,
		Cond:     r.Cond,
		HasWhen:  r.When != nil,
		Emits:    append([]event.Pattern(nil), r.Emits...),
		Pos:      r.Src,
	}
}

// condReadsDynamic reports whether the condition reads a dimension outside
// the decision-cache key: oid and name are event-instance data the planKey
// does not discriminate on, so a condition over them must run on the
// uncacheable (When) path. Every other dimension is either a key field or
// an Extra key, and Extra-carrying events bypass the cache anyway.
func condReadsDynamic(c *ruleanalysis.Cond) bool {
	for _, v := range c.Vars() {
		if v == "oid" || v == "name" {
			return true
		}
	}
	return false
}

// Stats counts engine activity.
type Stats struct {
	// Events is the number of events inspected.
	Events uint64
	// Evaluated counts rule match tests performed (the B1 ablation
	// contrasts indexed vs. linear lookup through this counter; a decision
	// cache hit performs zero match tests).
	Evaluated uint64
	// Fired counts actions executed (all families).
	Fired uint64
	// Selected counts customization selections delivered.
	Selected uint64
	// Suppressed counts matching customization rules that lost the
	// specificity contest.
	Suppressed uint64
}

// CacheStats counts decision-cache traffic for one engine (the registry
// counters gis_rule_cache_* aggregate the same events across engines).
type CacheStats struct {
	// Hits counts dispatches answered from a memoized plan.
	Hits uint64
	// Misses counts dispatches that scanned and then stored a plan.
	Misses uint64
	// Uncacheable counts dispatches that bypassed the cache (When rule in
	// the candidate set, extended context, or SelectAll).
	Uncacheable uint64
	// Invalidations counts epoch bumps (one per rule mutation).
	Invalidations uint64
	// PendingDropped counts unclaimed customizations evicted from the
	// bounded pending map.
	PendingDropped uint64
}

// HitRatio returns Hits / (Hits + Misses + Uncacheable), or 0 when idle.
func (s CacheStats) HitRatio() float64 {
	total := s.Hits + s.Misses + s.Uncacheable
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// engineStats is the live, lock-free form of Stats: dispatch updates these
// with atomic adds so the hot path never takes the engine mutex just to
// count.
type engineStats struct {
	events, evaluated, fired, selected, suppressed atomic.Uint64

	cacheHits, cacheMisses, cacheUncacheable atomic.Uint64
	cacheInvalidations, pendingDropped       atomic.Uint64
}

// DefaultMaxCascade bounds reaction-rule cascades.
const DefaultMaxCascade = 16

// DefaultMaxPending bounds the pending-customization map when MaxPending is
// zero. Entries past the bound are evicted oldest-first; a healthy caller
// claims every selection immediately after the emitting primitive returns,
// so only abandoned selections are ever dropped.
const DefaultMaxPending = 4096

// maxCachedPlans bounds the decision cache. The key space is the set of
// distinct event shapes actually dispatched, which a deployment with many
// users can grow without bound; at the cap the whole cache is reset (cheap,
// rare, and self-repopulating).
const maxCachedPlans = 8192

// kindUser is the two-level index key.
type kindUser struct {
	kind event.Kind
	user string
}

// bucket holds the rules of one index slot, pre-sorted at install time:
// cust in selection order (winner first, per beats) and others in execution
// order (per othersBefore). Dispatch merges at most two buckets and never
// sorts.
type bucket struct {
	cust   []*Rule
	others []*Rule
}

func (b *bucket) insert(r *Rule) {
	if r.Family == FamilyCustomization {
		b.cust = insertSorted(b.cust, r, beats)
	} else {
		b.others = insertSorted(b.others, r, othersBefore)
	}
}

func (b *bucket) remove(r *Rule) {
	if r.Family == FamilyCustomization {
		b.cust = removeRule(b.cust, r)
	} else {
		b.others = removeRule(b.others, r)
	}
}

func (b *bucket) empty() bool { return len(b.cust) == 0 && len(b.others) == 0 }

// insertSorted places r into rs keeping the order induced by before.
func insertSorted(rs []*Rule, r *Rule, before func(a, b *Rule) bool) []*Rule {
	i := sort.Search(len(rs), func(i int) bool { return before(r, rs[i]) })
	rs = append(rs, nil)
	copy(rs[i+1:], rs[i:])
	rs[i] = r
	return rs
}

func removeRule(rs []*Rule, target *Rule) []*Rule {
	for i, r := range rs {
		if r == target {
			return append(rs[:i], rs[i+1:]...)
		}
	}
	return rs
}

// planKey identifies an event shape for decision caching: every event field
// a rule's static pattern can discriminate on. Events whose context carries
// Extra dimensions never reach the cache (the key cannot cover an open map
// without allocating), and the dynamic When predicate is handled by marking
// the shape uncacheable at scan time.
type planKey struct {
	kind                event.Kind
	schema, class, attr string
	user, category, app string
}

func planKeyOf(e event.Event) planKey {
	return planKey{
		kind: e.Kind, schema: e.Schema, class: e.Class, attr: e.Attr,
		user: e.Ctx.User, category: e.Ctx.Category, app: e.Ctx.Application,
	}
}

// plan is a memoized dispatch decision: the rules that match the event
// shape, already selected and ordered, plus the epoch it was computed in.
// A plan is immutable after publication.
type plan struct {
	epoch      uint64
	best       *Rule   // winning customization rule, nil when none matches
	others     []*Rule // matching constraint/reaction rules in execution order
	suppressed uint64  // customization matches that lost the contest
}

// scratch is the per-dispatch candidate workspace, pooled so steady-state
// dispatch allocates nothing for candidate collection.
type scratch struct {
	cust, others []*Rule
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// pendingKey identifies an event for the pending-customization hand-off.
// Unlike planKey it includes the instance OID: concurrent sessions fetching
// different instances must not collide.
type pendingKey struct {
	kind                event.Kind
	schema, class, attr string
	oid                 catalog.OID
	user, category, app string
}

func pendingKeyOf(e event.Event) pendingKey {
	return pendingKey{
		kind: e.Kind, schema: e.Schema, class: e.Class, attr: e.Attr, oid: e.OID,
		user: e.Ctx.User, category: e.Ctx.Category, app: e.Ctx.Application,
	}
}

// Engine is the active mechanism. Subscribe it to a database bus with
// db.Bus().Subscribe(engine); it is safe for concurrent use.
type Engine struct {
	mu    sync.RWMutex
	rules map[string]*Rule
	// byKindUser is the two-level rule index: rules keyed by triggering
	// event kind plus the user their context pins (empty for rules whose
	// context does not name a user). Lookup unions the event's user bucket
	// with the wildcard bucket, so with U distinct users the per-event
	// candidate set shrinks by ~U versus the linear scan (B1 ablates
	// this against the linear bucket).
	byKindUser map[kindUser]*bucket
	// linear holds every rule (pre-sorted like any bucket) for the
	// Indexed=false ablation and for RuleInfos.
	linear bucket
	stats  engineStats
	tracer obs.Tracer

	// epoch versions the rule set; every AddRule/RemoveRule bumps it,
	// aging all cached plans at once. Plans record the epoch they were
	// computed in and are ignored when it no longer matches.
	epoch atomic.Uint64

	cacheMu sync.RWMutex
	cache   map[planKey]*plan

	// pending holds the customization selected for the most recent event
	// with a given identity; the UI dispatcher pops it right after the
	// database primitive returns (dispatch is synchronous, so the entry is
	// present by then). Keyed by the full event identity including context
	// and OID, so concurrent sessions do not collide. Bounded by MaxPending
	// with oldest-first eviction (pendingQ is the FIFO of insertions).
	pending  map[pendingKey]spec.Customization
	pendingQ []pendingKey

	// Indexed selects the (event kind)-indexed rule lookup; when false the
	// engine scans every rule (the naïve baseline B1 measures against).
	Indexed bool
	// CacheDecisions enables the dispatch-decision cache. On by default;
	// the B1 lookup-strategy ablations switch it off so they measure the
	// scan itself. SelectAll, When-predicate rules and extended contexts
	// bypass the cache regardless.
	CacheDecisions bool
	// SelectAll is the ablation of the paper's execution model: when true,
	// EVERY matching customization rule fires, in ascending specificity
	// order, each overwriting the previous selection. The final
	// customization equals the single-select result (most specific last),
	// but every action runs — the cost the paper's "only one rule is
	// selected" avoids, and a semantic hazard if actions had side effects.
	SelectAll bool
	// MaxCascade bounds nested reaction emissions.
	MaxCascade int
	// MaxPending bounds the pending-customization map; zero means
	// DefaultMaxPending. When full, the oldest unclaimed entry is dropped
	// (counted in gis_rule_pending_dropped_total).
	MaxPending int
	// Trace, when non-nil, receives a line per engine decision (experiment
	// F1 renders these). It is the legacy string hook, kept as a
	// compatibility shim over the structured span layer: the engine emits
	// the same decisions as spans through Tracer(), and additionally
	// formats them into lines when Trace is set. Prefer
	// Tracer().AttachSink.
	Trace func(string)
}

// Tracer exposes the engine's span tracer; attach an obs.SpanRecorder to
// capture structured dispatch/fire/select spans. With no recorder attached
// the span path costs one atomic load per dispatch and allocates nothing.
func (en *Engine) Tracer() *obs.Tracer { return &en.tracer }

func indexKey(r *Rule) kindUser {
	return kindUser{kind: r.On, user: r.Context.User}
}

// NewEngine returns an engine with indexed lookup, decision caching and the
// default cascade bound.
func NewEngine() *Engine {
	return &Engine{
		rules:          make(map[string]*Rule),
		byKindUser:     make(map[kindUser]*bucket),
		cache:          make(map[planKey]*plan),
		pending:        make(map[pendingKey]spec.Customization),
		Indexed:        true,
		CacheDecisions: true,
		MaxCascade:     DefaultMaxCascade,
	}
}

// invalidateLocked ages every cached plan after a rule mutation. Caller
// holds en.mu; the epoch bump makes stale plans unusable even by dispatches
// that already read them out of the map, so a stale winner is never served
// past the mutation that obsoleted it.
func (en *Engine) invalidateLocked() {
	en.epoch.Add(1)
	en.stats.cacheInvalidations.Add(1)
	mCacheInvalidations.Inc()
}

// AddRule validates and installs a rule.
func (en *Engine) AddRule(r Rule) error {
	if r.Name == "" {
		return fmt.Errorf("%w: empty name", ErrBadRule)
	}
	if r.On == 0 {
		return fmt.Errorf("%w: rule %q has no triggering event", ErrBadRule, r.Name)
	}
	switch r.Family {
	case FamilyCustomization:
		if r.Customize == nil {
			return fmt.Errorf("%w: customization rule %q has no Customize action", ErrBadRule, r.Name)
		}
		if r.React != nil {
			return fmt.Errorf("%w: customization rule %q must not have a React action", ErrBadRule, r.Name)
		}
		if len(r.Emits) > 0 {
			return fmt.Errorf("%w: customization rule %q cannot emit events (no Emitter is ever handed to it)", ErrBadRule, r.Name)
		}
	case FamilyConstraint, FamilyReaction:
		if r.React == nil {
			return fmt.Errorf("%w: %s rule %q has no React action", ErrBadRule, r.Family, r.Name)
		}
		if r.Customize != nil {
			return fmt.Errorf("%w: %s rule %q must not have a Customize action", ErrBadRule, r.Family, r.Name)
		}
	default:
		return fmt.Errorf("%w: rule %q has unknown family", ErrBadRule, r.Name)
	}
	cond, err := ruleanalysis.ParseCond(r.Cond)
	if err != nil {
		return fmt.Errorf("%w: rule %q: %v", ErrBadRule, r.Name, err)
	}
	en.mu.Lock()
	defer en.mu.Unlock()
	if _, ok := en.rules[r.Name]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateRule, r.Name)
	}
	stored := r
	stored.cond = cond
	stored.condDynamic = condReadsDynamic(cond)
	stored.specScore = stored.specificity()
	en.rules[r.Name] = &stored
	en.linear.insert(&stored)
	key := indexKey(&stored)
	b := en.byKindUser[key]
	if b == nil {
		b = &bucket{}
		en.byKindUser[key] = b
	}
	b.insert(&stored)
	en.invalidateLocked()
	return nil
}

// RemoveRule uninstalls a rule by name.
func (en *Engine) RemoveRule(name string) error {
	en.mu.Lock()
	defer en.mu.Unlock()
	r, ok := en.rules[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownRule, name)
	}
	delete(en.rules, name)
	en.linear.remove(r)
	key := indexKey(r)
	if b := en.byKindUser[key]; b != nil {
		b.remove(r)
		if b.empty() {
			delete(en.byKindUser, key)
		}
	}
	en.invalidateLocked()
	return nil
}

// Rules lists installed rule names in sorted order.
func (en *Engine) Rules() []string {
	en.mu.RLock()
	defer en.mu.RUnlock()
	out := make([]string, 0, len(en.rules))
	for name := range en.rules {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// RuleCount reports the number of installed rules.
func (en *Engine) RuleCount() int {
	en.mu.RLock()
	defer en.mu.RUnlock()
	return len(en.rules)
}

// Stats returns a snapshot of the engine counters.
func (en *Engine) Stats() Stats {
	return Stats{
		Events:     en.stats.events.Load(),
		Evaluated:  en.stats.evaluated.Load(),
		Fired:      en.stats.fired.Load(),
		Selected:   en.stats.selected.Load(),
		Suppressed: en.stats.suppressed.Load(),
	}
}

// CacheStats returns a snapshot of the engine's decision-cache counters.
func (en *Engine) CacheStats() CacheStats {
	return CacheStats{
		Hits:           en.stats.cacheHits.Load(),
		Misses:         en.stats.cacheMisses.Load(),
		Uncacheable:    en.stats.cacheUncacheable.Load(),
		Invalidations:  en.stats.cacheInvalidations.Load(),
		PendingDropped: en.stats.pendingDropped.Load(),
	}
}

// Epoch reports the rule-set version: it advances on every AddRule and
// RemoveRule (including strict-install rollbacks, which remove through the
// same path). Cached decisions from older epochs are never served.
func (en *Engine) Epoch() uint64 { return en.epoch.Load() }

// CachedPlans reports how many dispatch plans are currently memoized.
func (en *Engine) CachedPlans() int {
	en.cacheMu.RLock()
	defer en.cacheMu.RUnlock()
	return len(en.cache)
}

// ResetStats zeroes the counters (benchmarks use this between phases).
func (en *Engine) ResetStats() {
	en.stats.events.Store(0)
	en.stats.evaluated.Store(0)
	en.stats.fired.Store(0)
	en.stats.selected.Store(0)
	en.stats.suppressed.Store(0)
	en.stats.cacheHits.Store(0)
	en.stats.cacheMisses.Store(0)
	en.stats.cacheUncacheable.Store(0)
	en.stats.cacheInvalidations.Store(0)
	en.stats.pendingDropped.Store(0)
}

// HandleEvent implements event.Handler; it is the bus-facing entry point.
func (en *Engine) HandleEvent(e event.Event) error {
	return en.dispatch(e, 0)
}

type nestedEmitter struct {
	en    *Engine
	depth int
	// rule is the reaction rule the emitter was handed to; emissions are
	// checked against its Emits declaration so the static triggering
	// graph (Engine.CheckSet) stays sound.
	rule *Rule
}

func (ne nestedEmitter) EmitNested(e event.Event) error {
	if !ne.rule.emitDeclared(e) {
		return fmt.Errorf("%w: rule %q emitted [%s]", ErrUndeclaredEmit, ne.rule.Name, e)
	}
	return ne.en.dispatch(e, ne.depth+1)
}

// collect gathers the statically matching rules for e into sc, merging the
// pre-sorted user and wildcard buckets so sc.cust arrives in selection
// order and sc.others in execution order. It runs entirely under the read
// lock — the static match reads only engine-owned data, never caller code.
// It returns the number of match tests performed and whether any collected
// rule carries a dynamic When predicate.
func (en *Engine) collect(e event.Event, sc *scratch) (evaluated uint64, hasWhen bool) {
	en.mu.RLock()
	var ub, wb *bucket
	if en.Indexed {
		ub = en.byKindUser[kindUser{e.Kind, e.Ctx.User}]
		if e.Ctx.User != "" {
			// Rules whose context does not pin a user match any user.
			wb = en.byKindUser[kindUser{e.Kind, ""}]
		}
	} else {
		ub = &en.linear
	}
	var uc, uo, wc, wo []*Rule
	if ub != nil {
		uc, uo = ub.cust, ub.others
	}
	if wb != nil {
		wc, wo = wb.cust, wb.others
	}
	evaluated += mergeCollect(&sc.cust, uc, wc, beats, e, &hasWhen)
	evaluated += mergeCollect(&sc.others, uo, wo, othersBefore, e, &hasWhen)
	en.mu.RUnlock()
	return evaluated, hasWhen
}

// mergeCollect walks two before-sorted rule slices in merged order,
// appending the statically matching ones to dst. It reports the number of
// rules tested and flags any matching rule with a When predicate.
func mergeCollect(dst *[]*Rule, xs, ys []*Rule, before func(a, b *Rule) bool, e event.Event, hasWhen *bool) uint64 {
	var evaluated uint64
	i, j := 0, 0
	for i < len(xs) || j < len(ys) {
		var r *Rule
		if j >= len(ys) || (i < len(xs) && before(xs[i], ys[j])) {
			r = xs[i]
			i++
		} else {
			r = ys[j]
			j++
		}
		evaluated++
		if !r.matchesStatic(e) {
			continue
		}
		if r.When != nil || r.condDynamic {
			*hasWhen = true
		}
		*dst = append(*dst, r)
	}
	return evaluated
}

// filterWhen drops rules whose dynamic predicates (cache-dynamic Cond or
// When) reject e, in place, preserving order. It runs outside every engine
// lock: When predicates are caller code.
func filterWhen(rs []*Rule, e event.Event) []*Rule {
	kept := rs[:0]
	for _, r := range rs {
		if r.matchesDynamic(e) {
			kept = append(kept, r)
		}
	}
	return kept
}

func (en *Engine) dispatch(e event.Event, depth int) error {
	if depth > en.MaxCascade {
		return fmt.Errorf("%w: depth %d on %s", ErrCascadeLimit, depth, e)
	}
	if depth > 0 {
		mCascadeDepth.Observe(float64(depth))
	}
	sp := en.tracer.StartSpan("active.dispatch", e.Ctx.Trace)
	if sp != nil {
		sp.Set("event", e.Kind.String()).Set("ctx", e.Ctx.String())
		if e.Class != "" {
			sp.Set("class", e.Class)
		}
		if depth > 0 {
			sp.Setf("depth", "%d", depth)
		}
		defer sp.Finish()
	}

	// Fast path: a memoized plan for this event shape, still in epoch.
	cacheable := en.CacheDecisions && !en.SelectAll
	if cacheable && len(e.Ctx.Extra) != 0 {
		// Extra context dimensions are an open map: the fixed cache key
		// cannot cover them, so such events always take the scan path.
		cacheable = false
		en.stats.cacheUncacheable.Add(1)
		mCacheUncacheable.Inc()
		sp.Set("cache", "uncacheable")
	}
	var key planKey
	var epoch uint64
	if cacheable {
		key = planKeyOf(e)
		epoch = en.epoch.Load()
		en.cacheMu.RLock()
		p := en.cache[key]
		en.cacheMu.RUnlock()
		if p != nil && p.epoch == epoch {
			en.stats.cacheHits.Add(1)
			mCacheHits.Inc()
			if sp != nil {
				sp.Set("cache", "hit")
			}
			return en.run(e, p.best, p.others, p.suppressed, sp, depth, true)
		}
	}

	sc := scratchPool.Get().(*scratch)
	evaluated, hasWhen := en.collect(e, sc)
	if hasWhen {
		// When predicates are caller code, evaluated outside the lock;
		// their outcome may depend on event fields beyond the cache key,
		// so this shape must not be memoized.
		sc.cust = filterWhen(sc.cust, e)
		sc.others = filterWhen(sc.others, e)
	}
	en.stats.evaluated.Add(evaluated)
	mEvaluated.Add(evaluated)
	if sp != nil {
		sp.Setf("candidates", "%d", evaluated)
	}

	var best *Rule
	var suppressed uint64
	if !en.SelectAll {
		if len(sc.cust) > 0 {
			best = sc.cust[0]
			suppressed = uint64(len(sc.cust) - 1)
		}
		if cacheable {
			if hasWhen {
				en.stats.cacheUncacheable.Add(1)
				mCacheUncacheable.Inc()
				sp.Set("cache", "uncacheable")
			} else {
				en.stats.cacheMisses.Add(1)
				mCacheMisses.Inc()
				sp.Set("cache", "miss")
				p := &plan{
					epoch:      epoch,
					best:       best,
					others:     append([]*Rule(nil), sc.others...),
					suppressed: suppressed,
				}
				en.cacheMu.Lock()
				if len(en.cache) >= maxCachedPlans {
					clear(en.cache)
				}
				en.cache[key] = p
				en.cacheMu.Unlock()
			}
		}
		err := en.run(e, best, sc.others, suppressed, sp, depth, false)
		putScratch(sc)
		return err
	}

	// SelectAll ablation: every matching customization rule fires, least
	// specific first, so the most specific lands last in the pending slot —
	// the reverse of sc.cust's selection order. Never cached.
	err := en.runSelectAll(e, sc, sp, depth)
	putScratch(sc)
	return err
}

func putScratch(sc *scratch) {
	sc.cust = sc.cust[:0]
	sc.others = sc.others[:0]
	scratchPool.Put(sc)
}

// run executes a dispatch decision — the matched constraint/reaction rules
// in order, then the winning customization rule — and updates the activity
// counters. It is shared by the cache hit and miss paths; fromCache only
// affects tracing.
func (en *Engine) run(e event.Event, best *Rule, others []*Rule, suppressed uint64, sp *obs.Span, depth int, fromCache bool) error {
	en.stats.events.Add(1)
	en.stats.suppressed.Add(suppressed)
	mEvents.Inc()
	mSuppressed.Add(suppressed)

	// Constraint and reaction rules run for every match, constraints first
	// (a veto must precede side effects); others is already in that order.
	for _, r := range others {
		en.trace("fire %s rule %q on %s", r.Family, r.Name, e.Kind)
		en.countFired()
		fsp := sp.Child("rule.fire")
		fsp.Set("rule", r.Name).Set("family", r.Family.String())
		sw := obs.Start(mFireSeconds)
		err := r.React(e, nestedEmitter{en: en, depth: depth, rule: r})
		sw.Stop()
		fsp.Finish()
		if err != nil {
			return fmt.Errorf("rule %q: %w", r.Name, err)
		}
	}
	if best != nil {
		if fromCache {
			en.trace("select customization rule %q (specificity %d, cached) for %s in %s",
				best.Name, best.specScore, e.Kind, e.Ctx)
		} else {
			en.trace("select customization rule %q (specificity %d) for %s in %s",
				best.Name, best.specScore, e.Kind, e.Ctx)
		}
		en.countFired()
		mSpecificity.Observe(float64(best.specScore))
		if sp != nil {
			sp.Set("selected", best.Name).Setf("specificity", "%d", best.specScore)
		}
		sw := obs.Start(mFireSeconds)
		cust, err := best.Customize(e)
		sw.Stop()
		if err != nil {
			return fmt.Errorf("customization rule %q: %w", best.Name, err)
		}
		if cust.Origin == "" {
			cust.Origin = best.Name
		}
		en.stats.selected.Add(1)
		mSelected.Inc()
		en.storePending(e, cust)
	}
	return nil
}

// runSelectAll is the fire-every-match ablation path.
func (en *Engine) runSelectAll(e event.Event, sc *scratch, sp *obs.Span, depth int) error {
	en.stats.events.Add(1)
	mEvents.Inc()
	for _, r := range sc.others {
		en.trace("fire %s rule %q on %s", r.Family, r.Name, e.Kind)
		en.countFired()
		fsp := sp.Child("rule.fire")
		fsp.Set("rule", r.Name).Set("family", r.Family.String())
		sw := obs.Start(mFireSeconds)
		err := r.React(e, nestedEmitter{en: en, depth: depth, rule: r})
		sw.Stop()
		fsp.Finish()
		if err != nil {
			return fmt.Errorf("rule %q: %w", r.Name, err)
		}
	}
	for i := len(sc.cust) - 1; i >= 0; i-- {
		r := sc.cust[i]
		en.trace("fire-all customization rule %q for %s", r.Name, e.Kind)
		en.countFired()
		sw := obs.Start(mFireSeconds)
		cust, err := r.Customize(e)
		sw.Stop()
		if err != nil {
			return fmt.Errorf("customization rule %q: %w", r.Name, err)
		}
		if cust.Origin == "" {
			cust.Origin = r.Name
		}
		en.stats.selected.Add(1)
		mSelected.Inc()
		en.storePending(e, cust)
	}
	return nil
}

func (en *Engine) countFired() {
	en.stats.fired.Add(1)
	mFired.Inc()
}

func (en *Engine) trace(format string, args ...any) {
	if en.Trace != nil {
		en.Trace(fmt.Sprintf(format, args...))
	}
}

// storePending records a selected customization for the UI dispatcher to
// claim, evicting the oldest unclaimed entry when the bound is reached.
func (en *Engine) storePending(e event.Event, cust spec.Customization) {
	k := pendingKeyOf(e)
	en.mu.Lock()
	limit := en.MaxPending
	if limit <= 0 {
		limit = DefaultMaxPending
	}
	if _, exists := en.pending[k]; !exists && len(en.pending) >= limit {
		en.evictPendingLocked()
	}
	en.pending[k] = cust
	en.pendingQ = append(en.pendingQ, k)
	if len(en.pendingQ) > 2*limit {
		en.compactPendingQLocked()
	}
	en.mu.Unlock()
}

// evictPendingLocked drops the oldest still-unclaimed pending entry. Keys
// already claimed via TakeCustomization linger in the FIFO until skipped
// here or compacted. Caller holds en.mu.
func (en *Engine) evictPendingLocked() {
	for len(en.pendingQ) > 0 {
		k := en.pendingQ[0]
		en.pendingQ = en.pendingQ[1:]
		if _, ok := en.pending[k]; ok {
			delete(en.pending, k)
			en.stats.pendingDropped.Add(1)
			mPendingDropped.Inc()
			return
		}
	}
	// FIFO exhausted (every queued key was claimed or overwritten) but the
	// map is still at the bound: drop an arbitrary entry so the bound holds.
	for k := range en.pending {
		delete(en.pending, k)
		en.stats.pendingDropped.Add(1)
		mPendingDropped.Inc()
		return
	}
}

// compactPendingQLocked rebuilds the FIFO keeping only the first queue
// entry of each key still present in the map, so the queue length stays
// O(MaxPending) even when callers claim entries promptly (claims leave
// stale keys behind). Caller holds en.mu.
func (en *Engine) compactPendingQLocked() {
	seen := make(map[pendingKey]struct{}, len(en.pending))
	kept := en.pendingQ[:0]
	for _, k := range en.pendingQ {
		if _, live := en.pending[k]; !live {
			continue
		}
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		kept = append(kept, k)
	}
	// Re-slice into a fresh array when the old backing store is mostly
	// stale, so the discarded prefix can be collected.
	en.pendingQ = append(make([]pendingKey, 0, len(kept)), kept...)
}

// TakeCustomization pops the customization selected for the given event, if
// a rule fired for it. The UI dispatcher calls this immediately after the
// database primitive that emitted the event returns; because the bus is
// synchronous, selection has already happened on the same goroutine.
func (en *Engine) TakeCustomization(e event.Event) (spec.Customization, bool) {
	key := pendingKeyOf(e)
	en.mu.Lock()
	defer en.mu.Unlock()
	c, ok := en.pending[key]
	if ok {
		delete(en.pending, key)
	}
	return c, ok
}

// PendingCount reports undelivered customizations (should be 0 between
// interactions; tests assert no leaks).
func (en *Engine) PendingCount() int {
	en.mu.RLock()
	defer en.mu.RUnlock()
	return len(en.pending)
}

// RuleInfos snapshots the installed rules in their statically analyzable
// shape, sorted by name.
func (en *Engine) RuleInfos() []ruleanalysis.RuleInfo {
	en.mu.RLock()
	infos := make([]ruleanalysis.RuleInfo, 0, len(en.rules))
	for _, r := range en.rules {
		infos = append(infos, r.analysisInfo())
	}
	en.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// CheckSet statically analyzes the installed rule set: triggering-graph
// cycles (non-termination), ambiguous customization pairs, and shadowed
// (dead) rules. It is the engine-level entry point of the gislint checks;
// the custlang compiler's strict Install and cmd/gislint both run it.
func (en *Engine) CheckSet() []ruleanalysis.Finding {
	return ruleanalysis.CheckRules(en.RuleInfos())
}
