package serve

import (
	"encoding/json"
	"fmt"
)

// genStatus snapshots the swapper's generation pair for an AdminResult.
func (s *Server) genStatus() GenStatus {
	g := s.sw.Active()
	st := GenStatus{
		ActiveHash: g.HashHex(),
		Epoch:      s.sw.Epoch(),
		Backend:    g.Backend(),
		RawDim:     g.RawDim(),
	}
	if fb := s.sw.Fallback(); fb != nil {
		st.FallbackHash = fb.HashHex()
	}
	return st
}

// adminOp executes one live-vaccination operation against the manager. It
// runs on the requesting connection's reader goroutine: promotion
// (canary-scoring included) happens off the scoring lanes, which keep
// serving the old generation until the atomic swap lands.
func (s *Server) adminOp(a Admin) AdminResult {
	var res AdminResult
	switch a.Op {
	case AdminStatus:
		res.Ok = true
	case AdminSwap:
		if a.Path == "" {
			res.Error = "serve: admin swap needs a candidate bundle path"
			break
		}
		rep, err := s.mgr.PromoteFile(a.Path)
		res.Report = &rep
		if err != nil {
			res.Error = err.Error()
			break
		}
		res.Ok = rep.Swapped
		if !rep.Swapped {
			res.Error = rep.Reason
		}
	case AdminRollback:
		rep, err := s.mgr.Rollback()
		res.Report = &rep
		if err != nil {
			res.Error = err.Error()
			break
		}
		res.Ok = true
	default:
		res.Error = fmt.Sprintf("serve: unknown admin op %d", a.Op)
	}
	res.Status = s.genStatus()
	return res
}

// handleAdmin decodes one admin frame, runs the operation, and answers with
// the JSON AdminResult on the same connection.
func (c *conn) handleAdmin(payload []byte) {
	a, err := DecodeAdmin(payload)
	var res AdminResult
	if err != nil {
		res = AdminResult{Error: err.Error(), Status: c.srv.genStatus()}
	} else {
		res = c.srv.adminOp(a)
	}
	data, merr := json.Marshal(res)
	if merr != nil {
		// AdminResult is plain data; a marshal failure means a bug, and the
		// client still deserves a frame rather than a hang.
		data = []byte(fmt.Sprintf(`{"ok":false,"error":%q}`, merr.Error()))
	}
	c.deliver(AppendFrame(nil, FrameAdmin, data))
}

// Admin sends one live-vaccination operation and waits for its result. The
// connection must be quiescent (no samples in flight): the next inbound
// frame is consumed as the admin answer. perfbench's swap phase and the
// hot-swap tests dial a dedicated connection for this.
func (c *Client) Admin(a Admin) (AdminResult, error) {
	if err := c.writeFrame(AppendAdmin(c.buf[:0], a)); err != nil {
		return AdminResult{}, fmt.Errorf("serve: sending admin: %w", err)
	}
	fr, err := c.Recv()
	if err != nil {
		return AdminResult{}, fmt.Errorf("serve: reading admin result: %w", err)
	}
	if fr.Type != FrameAdmin {
		return AdminResult{}, fmt.Errorf("serve: expected admin result, got frame type 0x%02x", fr.Type)
	}
	var res AdminResult
	if err := json.Unmarshal(fr.Payload, &res); err != nil {
		return AdminResult{}, fmt.Errorf("serve: decoding admin result: %w", err)
	}
	return res, nil
}

// Swap promotes the bundle at path on the server and returns the promotion
// report.
func (c *Client) Swap(path string) (AdminResult, error) {
	return c.Admin(Admin{Op: AdminSwap, Path: path})
}

// Rollback re-activates the server's fallback generation.
func (c *Client) Rollback() (AdminResult, error) {
	return c.Admin(Admin{Op: AdminRollback})
}

// Status reports the server's generation pair.
func (c *Client) Status() (GenStatus, error) {
	res, err := c.Admin(Admin{Op: AdminStatus})
	return res.Status, err
}
