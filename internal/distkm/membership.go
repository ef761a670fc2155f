package distkm

import (
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"sync"
	"time"
)

// Dynamic membership: workers may join (and die) mid-fit. A joiner is handed
// to AddWorker — directly in-process, or over the wire via a JoinAcceptor
// (kmcoord -listen / kmworker -join) — and admitted at the next fan-out
// barrier, where no shard RPC is in flight. On admission it immediately
// steals row-ranges from the most loaded live owner, so a cluster that lost
// a worker (piling its shards onto one survivor) rebalances as soon as a
// replacement appears. Stealing cannot change the fit's arithmetic: spans
// are fixed at Distribute time and all reductions run in shard order, so
// which worker answers for a shard is invisible to the result.

// AddWorker hands a new, already-connected worker to the coordinator. The
// worker is admitted at the next fan-out barrier; between barriers no shard
// RPCs are in flight, so admission never races a running pass. Safe to call
// concurrently with a running fit.
func (c *Coordinator) AddWorker(cl Client) {
	c.pendMu.Lock()
	c.pending = append(c.pending, cl)
	c.pendMu.Unlock()
}

// admitJoiners moves pending workers into the live set and rebalances shards
// onto them. Called at the top of every fan-out (the barrier point).
func (c *Coordinator) admitJoiners() {
	c.pendMu.Lock()
	joiners := c.pending
	c.pending = nil
	c.pendMu.Unlock()
	for _, cl := range joiners {
		c.mu.Lock()
		c.clients = append(c.clients, cl)
		c.alive = append(c.alive, true)
		w := len(c.clients) - 1
		c.mu.Unlock()
		c.joins.Add(1)
		c.steal(w)
	}
}

// rowsByWorkerLocked tallies the rows currently assigned to each worker.
// Callers hold c.mu.
func (c *Coordinator) rowsByWorkerLocked() []int {
	rows := make([]int, len(c.clients))
	for s, w := range c.assign {
		if w >= 0 && w < len(rows) {
			rows[w] += c.spans[s].Hi - c.spans[s].Lo
		}
	}
	return rows
}

// leastLoadedLocked returns the live worker owning the fewest rows
// (deterministic tie-break: lowest index), or -1 when none is live. Callers
// hold c.mu. This is how failed shards are rescheduled onto the current live
// set — joiners admitted mid-fit are candidates like any original worker.
func (c *Coordinator) leastLoadedLocked() int {
	rows := c.rowsByWorkerLocked()
	best := -1
	for w := range c.clients {
		if !c.alive[w] {
			continue
		}
		if best < 0 || rows[w] < rows[best] {
			best = w
		}
	}
	return best
}

// steal rebalances shards onto worker w (typically a fresh joiner): move the
// largest shard of the most loaded live owner, as long as the move strictly
// improves the row balance — rows are the proxy for "slowest owner", since
// every pass is a linear scan. With one shard per worker and balanced spans
// it is a no-op; after deaths piled several shards onto one survivor it
// spreads them back out. Stolen shards are re-loaded on w (the cheap
// LoadPath in manifest mode) and their D² cache and nearest rows rebuilt by
// replaying the logged fold groups, exactly like a failover re-load.
func (c *Coordinator) steal(w int) {
	if c.ds == nil && c.segs == nil {
		return // nothing distributed yet; loadAll will use the grown client set
	}
	for {
		c.mu.Lock()
		if w >= len(c.alive) || !c.alive[w] {
			c.mu.Unlock()
			return
		}
		rows := c.rowsByWorkerLocked()
		shard, donor := -1, -1
		for s, owner := range c.assign {
			if owner == w || owner < 0 || owner >= len(c.alive) || !c.alive[owner] {
				continue
			}
			size := c.spans[s].Hi - c.spans[s].Lo
			if rows[owner] <= rows[w]+size {
				continue // the move would not strictly improve the balance
			}
			better := donor < 0 || rows[owner] > rows[donor] ||
				(rows[owner] == rows[donor] && size > c.spans[shard].Hi-c.spans[shard].Lo)
			if better {
				donor, shard = owner, s
			}
		}
		if shard < 0 {
			c.mu.Unlock()
			return
		}
		cl := c.clients[w]
		donorCl := c.clients[donor]
		folded := c.folded.clone()
		ref := c.ref(shard)
		c.mu.Unlock()

		c.calls.Add(1)
		if err := c.loadShard(cl, shard); err != nil {
			c.mu.Lock()
			c.alive[w] = false
			c.mu.Unlock()
			return
		}
		if err := c.replay(cl, ref, folded); err != nil {
			c.mu.Lock()
			c.alive[w] = false
			c.mu.Unlock()
			return
		}
		c.mu.Lock()
		c.assign[shard] = w
		c.mu.Unlock()
		// Best effort: the donor no longer serves this shard. A failed Drop
		// just leaves a copy for the donor's janitor to reclaim.
		c.calls.Add(1)
		_ = donorCl.Call("Worker.Drop", DropArgs{Ref: ref}, &Ack{})
	}
}

// JoinAcceptor accepts reverse connections from late-joining workers
// (kmworker -join): the worker dials the coordinator and serves its RPCs
// over the dialed connection, so workers behind NAT — or simply started
// after the coordinator — can still register. Next hands out joiners before
// the fit starts (kmcoord -min-workers); Feed pumps every later joiner into
// a running coordinator.
type JoinAcceptor struct {
	ln      net.Listener
	timeout time.Duration
	ch      chan Client
	feed    sync.Once
}

// ListenJoins starts accepting worker joins on addr. callTimeout bounds each
// RPC issued through an accepted connection (≤ 0 = DefaultCallTimeout).
func ListenJoins(addr string, callTimeout time.Duration) (*JoinAcceptor, error) {
	if callTimeout <= 0 {
		callTimeout = DefaultCallTimeout
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	a := &JoinAcceptor{ln: ln, timeout: callTimeout, ch: make(chan Client, 16)}
	go a.acceptLoop()
	return a, nil
}

func (a *JoinAcceptor) acceptLoop() {
	for {
		conn, err := a.ln.Accept()
		if err != nil {
			close(a.ch)
			return
		}
		cl := WithCallTimeout(rpc.NewClient(conn), a.timeout)
		select {
		case a.ch <- cl:
		default:
			_ = cl.Close() // backlog full; the worker's join loop will redial
		}
	}
}

// Addr returns the bound listen address (useful with ":0").
func (a *JoinAcceptor) Addr() string { return a.ln.Addr().String() }

// Next waits up to d for one worker to join and returns its client.
func (a *JoinAcceptor) Next(d time.Duration) (Client, error) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case cl, ok := <-a.ch:
		if !ok {
			return nil, errors.New("distkm: join listener closed")
		}
		return cl, nil
	case <-timer.C:
		return nil, fmt.Errorf("distkm: no worker joined within %s", d)
	}
}

// Feed forwards every subsequent joiner to c.AddWorker until the acceptor
// closes. Call once, after the coordinator exists.
func (a *JoinAcceptor) Feed(c *Coordinator) {
	a.feed.Do(func() {
		go func() {
			for cl := range a.ch {
				c.AddWorker(cl)
			}
		}()
	})
}

// Close stops accepting joins. Already-admitted workers are unaffected.
func (a *JoinAcceptor) Close() error { return a.ln.Close() }

// JoinAndServe dials a coordinator's join listener and serves this worker's
// RPCs over the dialed connection. It blocks until the connection closes —
// typically because the coordinator exited — so callers redial in a loop
// (cmd/kmworker -join) to rejoin a restarted or resumed coordinator.
func (w *Worker) JoinAndServe(addr string, dialTimeout time.Duration) error {
	if dialTimeout <= 0 {
		dialTimeout = 5 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return err
	}
	rpcServer(w).ServeConn(conn)
	return nil
}
