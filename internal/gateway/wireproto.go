package gateway

import (
	"net/http"

	"dmw/internal/server"
	"dmw/internal/wire"
)

// The intra-fleet encoding. Clients speak JSON to the gateway; the
// gateway speaks binary frames (internal/wire) to the fleet,
// unconditionally: every dmwd decodes job frames on its submit
// endpoints, so there is nothing to negotiate and nothing to fall back
// to. A single submit is a one-job frame to POST /v1/jobs, a batch
// shard a k-job frame to POST /v1/jobs/batch. A spec the frame cannot
// represent (a field over 65,535 entries) is the client's error — a 400
// naming the field — never a reason to send a second encoding.

// jobFrame encodes specs as one binary job frame.
func jobFrame(specs []server.JobSpec) ([]byte, error) {
	jobs := make([]wire.Job, len(specs))
	for i := range specs {
		jobs[i] = server.SpecToWire(specs[i])
	}
	return wire.EncodeJobFrame(jobs)
}

// postFrame is the one shape every submit takes on its way into the
// fleet: a job frame POSTed to path.
func postFrame(path string, frame []byte) proxyReq {
	return proxyReq{method: http.MethodPost, path: path, body: frame}
}
