package replica

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/fault"
)

// ErrLeaseLost is returned by renew when the lease file no longer names
// this replica as owner — another replica presumed us dead (an expired
// TTL) and took the key over. The build keeps running: its result is
// content-addressed, so finishing it is harmless, merely redundant.
var ErrLeaseLost = errors.New("replica: lease lost to another owner")

// leaseRecord is the JSON body of a lease file. Expires is an absolute
// wall-clock deadline: replicas share a filesystem, so they share a
// clock to within NTP skew, which the TTL must dominate.
type leaseRecord struct {
	Owner   string `json:"owner"`
	Seq     int64  `json:"seq"`             // renewal count, for debugging
	Expires int64  `json:"expires_unix_ns"` // absolute deadline
}

// expired reports whether the record's deadline has passed at now.
// An unparseable lease file decodes to the zero record, whose Expires
// of 0 is always in the past — torn writes read as stale, so a crash
// mid-heartbeat cannot wedge a key forever.
func (r leaseRecord) expired(now time.Time) bool {
	return r.Expires <= now.UnixNano()
}

// leaseDir implements the on-disk lease protocol over the shared
// checkpoint directory: one `<key>.lease` file per in-flight build,
// created atomically (temp file + hard link), renewed by the builder's
// heartbeat via temp-file + rename, deleted on release — or by any
// replica that finds it expired (takeover).
type leaseDir struct {
	dir   string
	owner string
	ttl   time.Duration
	now   func() time.Time // test seam; time.Now in production
}

func (l *leaseDir) path(key string) string {
	return filepath.Join(l.dir, key+".lease")
}

// tryAcquire attempts to claim key. held=true means this replica now
// owns the lease and must build; held=false with err=nil means a live
// holder exists and cur describes it. takeover reports that this call
// deleted an expired lease along the way, whether or not it then won
// the claim. A non-nil err means the lease infrastructure itself
// failed — unwritable directory, injected fault — and the caller
// degrades to an uncoordinated local build.
func (l *leaseDir) tryAcquire(key string) (held bool, cur leaseRecord, takeover bool, err error) {
	if err := fault.Hit(SiteLeaseAcquire); err != nil {
		return false, leaseRecord{}, false, err
	}
	// Two rounds: a first create attempt, and — after deleting an
	// expired lease — exactly one more. Losing the second race means
	// another replica took the key over first; it is the live holder.
	for attempt := 0; attempt < 2; attempt++ {
		mine, created, err := l.create(key)
		if err != nil {
			return false, leaseRecord{}, takeover, err
		}
		if created {
			return true, mine, takeover, nil
		}
		rec, ok, err := l.read(key)
		if err != nil {
			return false, leaseRecord{}, takeover, err
		}
		if ok && !rec.expired(l.now()) {
			return false, rec, takeover, nil
		}
		if ok && l.removeIf(key, rec) {
			// Crashed builder: the lease outlived its heartbeat.
			takeover = true
		}
		// Otherwise the file vanished or changed since the read
		// (released, or another waiter took it over): try the create
		// again.
	}
	rec, _, err := l.read(key)
	if err != nil {
		return false, leaseRecord{}, takeover, err
	}
	return false, rec, takeover, nil
}

// removeIf deletes key's lease only if it still holds rec. Two waiters
// that read the same expired record both try to take it over; the
// second must not delete the fresh lease the first has just created.
func (l *leaseDir) removeIf(key string, rec leaseRecord) bool {
	cur, ok, err := l.read(key)
	if err != nil || !ok || cur != rec {
		return false
	}
	return os.Remove(l.path(key)) == nil
}

// create makes the claim attempt. The record is written to a temp file
// first and then hard-linked into place, which fails if the lease
// exists: a concurrent read therefore sees either no lease or a
// complete record, never an empty file that would decode as expired.
// created=false with err=nil means someone holds, or held, the lease.
func (l *leaseDir) create(key string) (rec leaseRecord, created bool, err error) {
	rec = leaseRecord{Owner: l.owner, Seq: 1, Expires: l.now().Add(l.ttl).UnixNano()}
	tmpName, err := l.writeTemp(rec)
	if err != nil {
		return leaseRecord{}, false, fmt.Errorf("replica: lease create %s: %w", key, err)
	}
	defer os.Remove(tmpName)
	if err := os.Link(tmpName, l.path(key)); err != nil {
		if os.IsExist(err) {
			return leaseRecord{}, false, nil
		}
		return leaseRecord{}, false, fmt.Errorf("replica: lease create %s: %w", key, err)
	}
	return rec, true, nil
}

// writeTemp writes rec to a fresh temp file in the lease directory and
// returns its name.
func (l *leaseDir) writeTemp(rec leaseRecord) (string, error) {
	b, _ := json.Marshal(rec)
	tmp, err := os.CreateTemp(l.dir, "lease-tmp-*")
	if err != nil {
		return "", err
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	return tmp.Name(), nil
}

// read returns the current lease record. ok=false means no lease file
// exists. An unreadable or unparseable file reads as the zero record
// (ok=true, already expired), so corruption resolves to takeover.
func (l *leaseDir) read(key string) (rec leaseRecord, ok bool, err error) {
	b, err := os.ReadFile(l.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return leaseRecord{}, false, nil
		}
		return leaseRecord{}, false, fmt.Errorf("replica: lease read %s: %w", key, err)
	}
	_ = json.Unmarshal(b, &rec) // zero record on failure: expired
	return rec, true, nil
}

// renew extends the lease deadline by one TTL, atomically replacing the
// file so a concurrent read never sees a torn record. seq is the
// renewal counter from the previous renew (1 after acquire); the new
// value is returned. ErrLeaseLost means another replica owns the key
// now; other errors mean the heartbeat could not reach the directory.
func (l *leaseDir) renew(key string, seq int64) (int64, error) {
	if err := fault.Hit(SiteLeaseRenew); err != nil {
		return seq, err
	}
	cur, ok, err := l.read(key)
	if err != nil {
		return seq, err
	}
	if !ok || cur.Owner != l.owner {
		return seq, ErrLeaseLost
	}
	rec := leaseRecord{Owner: l.owner, Seq: seq + 1, Expires: l.now().Add(l.ttl).UnixNano()}
	tmpName, err := l.writeTemp(rec)
	if err != nil {
		return seq, fmt.Errorf("replica: lease renew %s: %w", key, err)
	}
	if err := os.Rename(tmpName, l.path(key)); err != nil {
		os.Remove(tmpName)
		return seq, fmt.Errorf("replica: lease renew %s: %w", key, err)
	}
	return rec.Seq, nil
}

// release deletes the lease if this replica still owns it. A release
// that fails (or is suppressed by the replica.lease.release fault site)
// leaves a stale lease behind; the next claimant waits out the TTL and
// takes over, so a lost release costs latency, never correctness.
func (l *leaseDir) release(key string) error {
	if err := fault.Hit(SiteLeaseRelease); err != nil {
		return err
	}
	cur, ok, err := l.read(key)
	if err != nil || !ok {
		return err
	}
	if cur.Owner == l.owner {
		os.Remove(l.path(key))
	}
	return nil
}
