// Package backend implements the DGS backend scheduler service (paper
// Fig. 1): the Internet-side component that collects chunk receipts from
// receive-only ground stations, collates them into per-satellite cumulative
// acks for transmit-capable stations to upload, and distributes downlink
// schedules to every station.
//
// The package has two halves: Collator, the pure state machine (and the
// simulator's backend state), and Server/StationAgent, the TCP endpoints
// speaking internal/proto over a managed session (internal/session).
//
// # Fault tolerance
//
// Station↔backend links ride commodity Internet connections, so churn is
// the norm (Zhao et al.; Kim et al.). internal/session supplies what any
// such hop needs — the Hello version gate, an I/O deadline on every read
// and write on both ends, heartbeats that keep idle sessions inside those
// deadlines and expose dead peers, and automatic redial under exponential
// backoff plus jitter for the agent's one managed session (Connect). This
// package adds what is specific to relaying chunk receipts:
//
//   - The backend answers the session's Resume probe with the station's
//     last collated report sequence number, and the agent replays only
//     newer reports (a report the resume state shows collated is
//     acknowledged locally).
//   - The agent matches replies to requests in order, one in flight, and
//     registers the reply's waiter before the request is written, so a
//     reply can never overtake it.
//   - ChunkReports carry per-station monotonic sequence numbers; the
//     Collator applies each at most once. Receipts are therefore delivered
//     at-least-once but collated exactly-once, and the digest stream is
//     identical with or without connection churn (the chaos equivalence
//     test enforces this under a seeded faultnet schedule).
package backend
