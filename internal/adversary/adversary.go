// Package adversary implements Byzantine replica behaviors for both of
// this repository's runtimes: the deterministic discrete-event simulator
// (internal/sim) and the real-time transports (internal/transport).
//
// A Byzantine replica is modeled as an honest core.Node wrapped by a
// runtime.Behavior (Wrap): the wrapper intercepts the node's outbound
// traffic and lets the behavior suppress, rewrite or equivocate it, and
// inject adversarial messages of its own — all signed with the replica's
// own key, which is exactly the power a real Byzantine replica has. The
// honest paths are reused, never forked, so every adversary stays in sync
// with protocol changes by construction.
//
// The shipped behaviors (New/Names) cover the attack classes the paper's
// seamlessness and safety arguments must survive: lane equivocation
// (§A.4), lane-vote withholding and conflicting votes, bogus/stale sync
// replies (§5.2.2 non-blocking sync), tip suppression in consensus cuts
// (§B.1 motivates the reputation defense), and view-change timeout spam
// (§5.3).
package adversary

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/runtime"
	"repro/internal/types"
)

// Env is the environment a behavior acts in: the committee, the wrapped
// replica's identity and signing key, read access to the honest node, and
// the behavior's activity window.
type Env struct {
	Committee types.Committee
	Self      types.NodeID
	// Signer holds the replica's own key — a Byzantine replica signs
	// whatever it likes with it (and nothing with anyone else's).
	Signer crypto.Signer
	// Node is the wrapped honest replica. Behaviors may inspect its state
	// (engine views, lane tips) from event context only: the wrapper is
	// single-threaded, like every runtime.Protocol.
	Node *core.Node
	// From/To bound the behavior's activity window (half-open, measured
	// on ctx.Now). To <= 0 means "no end".
	From, To time.Duration
}

// Active reports whether the behavior misbehaves at time now; outside the
// window the replica acts honestly.
func (e *Env) Active(now time.Duration) bool {
	return now >= e.From && (e.To <= 0 || now < e.To)
}

// pass is the identity Outbound result.
func pass(d runtime.Directed) []runtime.Directed { return []runtime.Directed{d} }

// replace swaps the message of a transmission, preserving its addressing.
func replace(d runtime.Directed, m types.Message) []runtime.Directed {
	return []runtime.Directed{{To: d.To, Broadcast: d.Broadcast, Msg: m}}
}

// Node wraps an honest Autobahn replica with a Byzantine behavior. It
// implements runtime.Protocol (and the pre-verification hook) so it can
// be dropped into any runtime where a *core.Node fits; it deliberately
// does NOT implement runtime.Sharder — the wrapped node runs its shard
// handlers inline on the control loop, so behaviors never race the
// state they inspect.
type Node struct {
	inner *core.Node
	b     runtime.Behavior
	ictx  interceptCtx
}

// Wrap builds the Byzantine wrapper.
func Wrap(inner *core.Node, b runtime.Behavior) *Node {
	n := &Node{inner: inner, b: b}
	n.ictx.a = n
	return n
}

// Inner exposes the wrapped honest node (tests and harness inspection).
func (a *Node) Inner() *core.Node { return a.inner }

// Behavior exposes the wrapped behavior's name.
func (a *Node) Behavior() string { return a.b.Name() }

var (
	_ runtime.Protocol    = (*Node)(nil)
	_ runtime.PreVerifier = (*Node)(nil)
	_ runtime.Flusher     = (*Node)(nil)
)

// Init initializes the honest node (through the intercepting context) and
// then the behavior (raw context: its sends are already adversarial and
// must not be re-filtered).
func (a *Node) Init(ctx runtime.Context) {
	a.inner.Init(a.enter(ctx))
	a.b.Init(ctx)
}

// OnMessage delivers through the honest paths, intercepting replies.
func (a *Node) OnMessage(ctx runtime.Context, from types.NodeID, m types.Message) {
	a.inner.OnMessage(a.enter(ctx), from, m)
}

// OnClientBatch feeds the honest mempool→lane path, intercepting the
// resulting car broadcast (where lane equivocation happens).
func (a *Node) OnClientBatch(ctx runtime.Context, b *types.Batch) {
	a.inner.OnClientBatch(a.enter(ctx), b)
}

// OnTimer routes behavior-owned tags (Kind >= runtime.BehaviorTagBase) to
// the behavior and everything else to the honest node.
func (a *Node) OnTimer(ctx runtime.Context, tag runtime.TimerTag) {
	if tag.Kind >= runtime.BehaviorTagBase {
		a.b.OnTimer(ctx, tag)
		return
	}
	a.inner.OnTimer(a.enter(ctx), tag)
}

// PreVerify delegates inbound signature checking to the honest node (an
// adversary still refuses forged inputs: accepting them would only let
// other Byzantine replicas spend its voice).
func (a *Node) PreVerify(from types.NodeID, m types.Message) error {
	return a.inner.PreVerify(from, m)
}

// Flush drives the honest node's group-commit barrier; gated sends
// released by it pass through the behavior like any other send.
func (a *Node) Flush(ctx runtime.Context) {
	a.inner.Flush(a.enter(ctx))
}

// enter installs ctx behind the intercepting context for one event.
func (a *Node) enter(ctx runtime.Context) runtime.Context {
	a.ictx.Context = ctx
	return &a.ictx
}

// emit runs one honest transmission through the behavior and performs
// whatever it returns, on the raw context.
func (a *Node) emit(raw runtime.Context, d runtime.Directed) {
	for _, out := range a.b.Outbound(raw, d) {
		if out.Broadcast {
			raw.Broadcast(out.Msg)
		} else {
			raw.Send(out.To, out.Msg)
		}
	}
}

// interceptCtx is the runtime.Context handed to the honest node: sends
// and broadcasts detour through the behavior, everything else passes.
type interceptCtx struct {
	runtime.Context
	a *Node
}

func (c *interceptCtx) Send(to types.NodeID, m types.Message) {
	c.a.emit(c.Context, runtime.Directed{To: to, Msg: m})
}

func (c *interceptCtx) Broadcast(m types.Message) {
	c.a.emit(c.Context, runtime.Directed{Broadcast: true, Msg: m})
}

// Names lists the shipped behaviors in reporting order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// New builds a shipped behavior by name. The environment must name the
// wrapped node's committee, identity and signer; the node pointer may be
// filled in after construction via Wrap helpers, but must be set before
// the runtime starts for behaviors that inspect protocol state.
func New(name string, env *Env) (runtime.Behavior, error) {
	mk, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("adversary: unknown behavior %q (known: %v)", name, Names())
	}
	return mk(env), nil
}

var registry = map[string]func(*Env) runtime.Behavior{
	"equivocate":     func(e *Env) runtime.Behavior { return &equivocate{env: e} },
	"withhold-votes": func(e *Env) runtime.Behavior { return &laneVotes{env: e} },
	"conflict-votes": func(e *Env) runtime.Behavior { return &laneVotes{env: e, conflict: true} },
	"bogus-sync":     func(e *Env) runtime.Behavior { return &bogusSync{env: e} },
	"suppress-tips":  func(e *Env) runtime.Behavior { return &suppressTips{env: e} },
	"timeout-spam":   func(e *Env) runtime.Behavior { return &timeoutSpam{env: e} },
}

// WrapNode is the one-call builder used by cluster assembly: it wraps an
// honest node with the named behavior. The window [from, to) bounds when
// the behavior misbehaves; to <= 0 means "until the run ends".
func WrapNode(inner *core.Node, committee types.Committee, self types.NodeID, signer crypto.Signer, name string, from, to time.Duration) (*Node, error) {
	env := &Env{Committee: committee, Self: self, Signer: signer, Node: inner, From: from, To: to}
	b, err := New(name, env)
	if err != nil {
		return nil, err
	}
	return Wrap(inner, b), nil
}
