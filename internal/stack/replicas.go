package stack

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"
)

// ReplicaSet runs N HTTP replicas on fixed loopback ports: a world's
// services (StartOpts) and the cluster e2e harness. Each replica keeps
// its host:port across restarts (a cluster member's URL is part of its
// identity), Kill is abrupt
// (http.Server.Close tears down the listener and every live connection,
// the same TCP failure mode a SIGKILLed process presents to clients),
// and Restart rebinds the same port with a handler built fresh by the
// caller — which is where a real replica would re-load its model from
// the registry and replay the ingestion WAL.
//
// The handlers come from the caller because stack sits below the root
// frappe package (frappe imports stack) and cannot construct Watchdogs
// itself.
type ReplicaSet struct {
	replicas []*replicaServer
}

// replicaServer is one slot: a fixed address and whatever server
// currently occupies it.
type replicaServer struct {
	id   string
	addr string // fixed across restarts

	mu  sync.Mutex
	srv *http.Server
	wg  sync.WaitGroup
}

// StartReplicas binds one loopback listener per ID and serves
// factory(i, id) on it. Callers must Close the set.
func StartReplicas(ids []string, factory func(i int, id string) http.Handler) (*ReplicaSet, error) {
	rs := &ReplicaSet{}
	for i, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			rs.Close()
			return nil, fmt.Errorf("stack: replica %s: listen: %w", id, err)
		}
		r := &replicaServer{id: id, addr: ln.Addr().String()}
		r.serveLocked(ln, factory(i, id))
		rs.replicas = append(rs.replicas, r)
	}
	return rs, nil
}

// serveLocked installs a server on ln; callers hold r.mu (or own r
// exclusively, as StartReplicas does).
func (r *replicaServer) serveLocked(ln net.Listener, h http.Handler) {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	r.srv = srv
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		// ErrServerClosed (and the use-of-closed-listener error a Kill
		// provokes) are the normal teardown paths.
		_ = srv.Serve(ln)
	}()
}

// Len returns the replica count.
func (rs *ReplicaSet) Len() int { return len(rs.replicas) }

// ID returns replica i's identity.
func (rs *ReplicaSet) ID(i int) string { return rs.replicas[i].id }

// URL returns replica i's base URL; stable across Kill/Restart.
func (rs *ReplicaSet) URL(i int) string { return "http://" + rs.replicas[i].addr }

// Kill tears replica i down abruptly: the listener closes and every
// established connection is severed mid-flight, so clients see
// connection-refused / reset — not a graceful drain. Idempotent.
func (rs *ReplicaSet) Kill(i int) {
	r := rs.replicas[i]
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.srv != nil {
		_ = r.srv.Close()
		r.srv = nil
	}
	r.wg.Wait()
}

// Restart rebinds replica i's original port and serves h. The port was
// just freed by Kill, but the kernel may lag a moment releasing it, so
// the bind retries briefly.
func (rs *ReplicaSet) Restart(i int, h http.Handler) error {
	r := rs.replicas[i]
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.srv != nil {
		return fmt.Errorf("stack: replica %s still running; Kill it first", r.id)
	}
	var (
		ln  net.Listener
		err error
	)
	for attempt := 0; attempt < 50; attempt++ {
		ln, err = net.Listen("tcp", r.addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("stack: replica %s: rebind %s: %w", r.id, r.addr, err)
	}
	r.serveLocked(ln, h)
	return nil
}

// Close kills every replica.
func (rs *ReplicaSet) Close() {
	for i := range rs.replicas {
		rs.Kill(i)
	}
}
