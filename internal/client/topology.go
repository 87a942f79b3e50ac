package client

import (
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/event"
	"repro/internal/geodb"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/spec"
	"repro/internal/ui"
)

// Topology-level fault-tolerance accounting.
var (
	mEvictions = obs.Default().Counter("gis_client_replica_evictions_total")
	mRejoins   = obs.Default().Counter("gis_client_replica_rejoins_total")
	mFailovers = obs.Default().Counter("gis_client_read_failovers_total")
)

// Endpoint names one server of a replicated deployment. Dial overrides Addr
// for tests (pipes, faultnet wrapping).
type Endpoint struct {
	Addr string
	Dial func() (net.Conn, error)
}

func (e Endpoint) dial() func() (net.Conn, error) {
	if e.Dial != nil {
		return e.Dial
	}
	addr := e.Addr
	return func() (net.Conn, error) { return net.Dial("tcp", addr) }
}

// TopologyOptions tunes a Topology.
type TopologyOptions struct {
	// Client configures every per-endpoint client (timeout, retries). Its
	// Dial field is ignored; each endpoint supplies its own.
	Client Options
	// HealthEvery is the probe interval for evicted replicas (default
	// 500ms): each tick, every evicted replica gets one Connect probe and
	// rejoins the read rotation if it answers.
	HealthEvery time.Duration
}

// topoEndpoint is one replica in the rotation.
type topoEndpoint struct {
	c       *Client
	healthy atomic.Bool
}

// Topology is the replication-aware backend: it spreads the idempotent
// retrieval verbs round-robin across the primary and every healthy replica,
// pins mutations (call_method, scenario commits) to the primary, evicts a
// replica from the rotation when it fails a read — a transport failure, a
// poisoned stream, or the replica itself answering
// proto.ReplicaUnavailableMsg — and re-admits it once a background health
// probe succeeds. When every replica is out, reads fail over to the
// primary, so a degraded deployment behaves exactly like a single server.
//
// It implements ui.Backend and ui.Mutator, so sessions and the interface
// builder run unchanged over a replicated deployment.
type Topology struct {
	primary  *Client
	replicas []*topoEndpoint
	opts     TopologyOptions
	rr       atomic.Uint64
	done     chan struct{}
	wg       sync.WaitGroup
	closed   sync.Once
}

// NewTopology builds the topology client. The primary endpoint serves both
// reads (as a rotation member) and all mutations; replicas serve reads
// only. Close releases every connection and stops the health prober.
func NewTopology(primary Endpoint, replicas []Endpoint, opts TopologyOptions) *Topology {
	if opts.HealthEvery <= 0 {
		opts.HealthEvery = 500 * time.Millisecond
	}
	t := &Topology{opts: opts, done: make(chan struct{})}
	po := opts.Client
	po.Dial = primary.dial()
	t.primary = New(po)
	for _, ep := range replicas {
		ro := opts.Client
		ro.Dial = ep.dial()
		te := &topoEndpoint{c: New(ro)}
		te.healthy.Store(true)
		t.replicas = append(t.replicas, te)
	}
	t.wg.Add(1)
	go t.healthLoop()
	return t
}

// Close stops the health prober and closes every endpoint client.
func (t *Topology) Close() error {
	t.closed.Do(func() { close(t.done) })
	t.wg.Wait()
	var err error
	if e := t.primary.Close(); e != nil {
		err = e
	}
	for _, ep := range t.replicas {
		if e := ep.c.Close(); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// Primary exposes the pinned primary client (stats, traces, repl status).
func (t *Topology) Primary() *Client { return t.primary }

// Healthy reports how many replicas are currently in the read rotation.
func (t *Topology) Healthy() int {
	n := 0
	for _, ep := range t.replicas {
		if ep.healthy.Load() {
			n++
		}
	}
	return n
}

// healthLoop probes evicted replicas and re-admits the ones that answer.
// The probe is a Connect round trip: on a replica server it runs the same
// availability gate as every read, so a replica rejoins exactly when reads
// against it would succeed.
func (t *Topology) healthLoop() {
	defer t.wg.Done()
	tick := time.NewTicker(t.opts.HealthEvery)
	defer tick.Stop()
	for {
		select {
		case <-t.done:
			return
		case <-tick.C:
		}
		for _, ep := range t.replicas {
			if ep.healthy.Load() {
				continue
			}
			if err := ep.c.Connect(event.Context{}); err == nil {
				ep.healthy.Store(true)
				mRejoins.Inc()
			}
		}
	}
}

// evictable reports whether a read failure should take the replica out of
// the rotation: any transport-level failure (the stream is gone or
// poisoned), or the replica itself reporting it cannot serve reads.
func evictable(err error) bool {
	if transient(err) {
		return true
	}
	return errors.Is(err, proto.ErrRemote) && strings.Contains(err.Error(), proto.ReplicaUnavailableMsg)
}

// read runs fn against the next endpoint in rotation. The primary is a
// rotation member like any replica — reads spread over N+1 endpoints, and a
// deployment with no replicas behaves like a plain client — but it is never
// evicted: its client self-heals by redialing, and there is nothing left to
// fail over to. A replica that fails is evicted and the scan moves on; the
// scan always terminates at the primary's slot, so when every replica is
// down, every read lands there.
func (t *Topology) read(fn func(c *Client) error) error {
	n := len(t.replicas) + 1 // replicas plus the primary
	slot := int(t.rr.Add(1) % uint64(n))
	for i := 0; i < n; i++ {
		idx := (slot + i) % n
		if idx == len(t.replicas) {
			if i > 0 {
				// This read's designated replica could not serve it.
				mFailovers.Inc()
			}
			return fn(t.primary)
		}
		ep := t.replicas[idx]
		if !ep.healthy.Load() {
			continue
		}
		err := fn(ep.c)
		if err == nil {
			return nil
		}
		if !evictable(err) {
			return err // an application answer, not a replica fault
		}
		ep.healthy.Store(false)
		mEvictions.Inc()
	}
	// Unreachable: the scan always hits the primary's slot. Kept for safety.
	return fn(t.primary)
}

// Connect implements ui.Backend; it rotates like any read.
func (t *Topology) Connect(ctx event.Context) error {
	return t.read(func(c *Client) error { return c.Connect(ctx) })
}

// GetSchema implements ui.Backend.
func (t *Topology) GetSchema(ctx event.Context, schema string) (info geodb.SchemaInfo, cust *spec.Customization, err error) {
	err = t.read(func(c *Client) error {
		var e error
		info, cust, e = c.GetSchema(ctx, schema)
		return e
	})
	return
}

// GetClass implements ui.Backend.
func (t *Topology) GetClass(ctx event.Context, schema, class string) (data ui.ClassData, cust *spec.Customization, err error) {
	err = t.read(func(c *Client) error {
		var e error
		data, cust, e = c.GetClass(ctx, schema, class)
		return e
	})
	return
}

// GetClassWindowed implements ui.Backend.
func (t *Topology) GetClassWindowed(ctx event.Context, schema, class string, window geom.Rect) (data ui.ClassData, cust *spec.Customization, err error) {
	err = t.read(func(c *Client) error {
		var e error
		data, cust, e = c.GetClassWindowed(ctx, schema, class, window)
		return e
	})
	return
}

// GetValue implements ui.Backend.
func (t *Topology) GetValue(ctx event.Context, oid catalog.OID) (in geodb.Instance, cust *spec.Customization, err error) {
	err = t.read(func(c *Client) error {
		var e error
		in, cust, e = c.GetValue(ctx, oid)
		return e
	})
	return
}

// SelectWhere implements ui.Backend.
func (t *Topology) SelectWhere(ctx event.Context, schema, class string, filters []geodb.Filter) (out []geodb.Instance, err error) {
	err = t.read(func(c *Client) error {
		var e error
		out, e = c.SelectWhere(ctx, schema, class, filters)
		return e
	})
	return
}

// CallMethod implements ui.Backend, pinned to the primary: methods may
// mutate, and only the primary's log is the truth.
func (t *Topology) CallMethod(oid catalog.OID, method string, args ...catalog.Value) (catalog.Value, error) {
	return t.primary.CallMethod(oid, method, args...)
}

// ScenarioInsert implements ui.Mutator, pinned to the primary.
func (t *Topology) ScenarioInsert(ctx event.Context, schema, class string, values []catalog.Value) (catalog.OID, error) {
	return t.primary.ScenarioInsert(ctx, schema, class, values)
}

// ScenarioUpdate implements ui.Mutator, pinned to the primary.
func (t *Topology) ScenarioUpdate(ctx event.Context, oid catalog.OID, values []catalog.Value) error {
	return t.primary.ScenarioUpdate(ctx, oid, values)
}

// ScenarioDelete implements ui.Mutator, pinned to the primary.
func (t *Topology) ScenarioDelete(ctx event.Context, oid catalog.OID) error {
	return t.primary.ScenarioDelete(ctx, oid)
}

// CommitTxn implements ui.TxnMutator, pinned to the primary: only the
// primary's log can make a batch durable.
func (t *Topology) CommitTxn(ctx event.Context, ops []ui.TxnOp) ([]catalog.OID, error) {
	return t.primary.CommitTxn(ctx, ops)
}

// ReplStatus fetches the primary's replication status.
func (t *Topology) ReplStatus() (proto.ReplStatus, error) {
	return t.primary.ReplStatus()
}

var _ ui.Backend = (*Topology)(nil)
var _ ui.Mutator = (*Topology)(nil)
var _ ui.TxnMutator = (*Topology)(nil)
