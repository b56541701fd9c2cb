//! The one receive loop every consumer operator runs under: [`drive`]
//! feeds a [`PushOp`] from its input channels (see the [module
//! docs](super) for what it owns).

use super::OpGuard;
use crate::context::{ExecContext, Msg};
use crossbeam::channel::{Receiver, RecvError, Select, TryRecvError};
use sip_common::trace::Phase;
use sip_common::{Batch, ColumnarBatch, OpId, Result, SelVec};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// One batch as its producer sent it: rows or columns.
pub(crate) enum Payload {
    Batch(Batch),
    Cols(ColumnarBatch),
}

impl Payload {
    /// The batch a message carries; `None` for `Eof`.
    pub(crate) fn of(msg: Msg) -> Option<Payload> {
        match msg {
            Msg::Batch(b) => Some(Payload::Batch(b)),
            Msg::Cols(c) => Some(Payload::Cols(c)),
            Msg::Eof => None,
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            Payload::Batch(b) => b.len(),
            Payload::Cols(c) => c.len(),
        }
    }

    /// Keep the rows `sel` selects: rows compact in place, columns gather
    /// (or pass untouched when every row is kept).
    pub(crate) fn select(self, sel: &SelVec) -> Payload {
        match self {
            Payload::Batch(mut b) => {
                sel.compact(&mut b.rows);
                Payload::Batch(b)
            }
            Payload::Cols(c) if sel.len() == c.len() => Payload::Cols(c),
            Payload::Cols(c) => Payload::Cols(c.gather(sel.as_slice())),
        }
    }

    /// The row seam (row-shaped operator state, the root sink): columnar
    /// payloads materialize rows here.
    pub(crate) fn into_rows(self) -> Batch {
        match self {
            Payload::Batch(b) => b,
            Payload::Cols(c) => c.to_batch(),
        }
    }
}

/// A consumer operator under the push contract.
pub(crate) trait PushOp {
    /// Do all inputs feed one stream (Merge, ShuffleRead)? A union counts
    /// every input into `rows_in[0]` and serves ready inputs in rotation, so
    /// no partition starves behind a busier sibling. Otherwise input `i`
    /// counts into `rows_in[i]` and the lowest-numbered ready input is
    /// served first: a two-input join takes input 0 whenever both are
    /// ready, which decides how much of each side it buffers.
    const UNION: bool = false;

    /// One batch arrived on `input`.
    fn push(&mut self, input: usize, payload: Payload) -> Result<()>;

    /// `input` reached a clean `Eof`.
    fn input_done(&mut self, _input: usize) -> Result<()> {
        Ok(())
    }

    /// Has the downstream hung up? The driver then stops pulling input.
    fn hung_up(&self) -> bool;

    /// Flush, release state and send `Eof` — after every input's `Eof`, or
    /// early once [`PushOp::hung_up`].
    fn close(self) -> Result<()>;
}

/// Run `node` over `inputs` until every input has reached `Eof` or the
/// downstream has hung up, then close it.
///
/// A disconnect without `Eof` means the upstream operator died: it is an
/// attributed `Disconnect` error on any input, never an end of stream.
pub(crate) fn drive<O: PushOp>(
    ctx: &Arc<ExecContext>,
    op: OpId,
    inputs: Vec<Receiver<Msg>>,
    mut node: O,
) -> Result<()> {
    let mut guard = OpGuard::new(ctx, op);
    let mut tr = ctx.tracer(op);
    let metrics = ctx.hub.op(op);
    // Indices of inputs that have not yet reached Eof. The Select session
    // is registered once per live-set change, never per batch —
    // registration takes a lock per input.
    let mut live: Vec<usize> = (0..inputs.len()).collect();
    'live: while !live.is_empty() {
        let mut sel = Select::new();
        for &i in &live {
            sel.recv(&inputs[i]);
        }
        let mut start = 0;
        loop {
            let t_recv = tr.begin();
            let (slot, msg) = if live.len() == 1 {
                (0, inputs[live[0]].recv())
            } else {
                next_ready(&inputs, &live, &mut sel, &mut start, O::UNION)
            };
            tr.end(Phase::ChannelRecv, t_recv);
            let input = live[slot];
            let eof = match msg.map(Payload::of) {
                Ok(Some(payload)) => {
                    guard.on_batch()?;
                    let counted = if O::UNION { 0 } else { input };
                    metrics.rows_in[counted].fetch_add(payload.len() as u64, Ordering::Relaxed);
                    metrics.batches_in.fetch_add(1, Ordering::Relaxed);
                    node.push(input, payload)?;
                    false
                }
                Ok(None) => {
                    live.remove(slot);
                    node.input_done(input)?;
                    true
                }
                Err(RecvError) => return Err(ctx.disconnect_err(op)),
            };
            if node.hung_up() {
                break 'live;
            }
            if eof {
                continue 'live;
            }
        }
    }
    // Dropping the receivers first lets a producer blocked on a full
    // channel see the hangup and wind down while this operator closes.
    drop(inputs);
    tr.flush();
    node.close()
}

/// Receive from the first ready live input in scan order, blocking on
/// `sel` while none is ready. The scan starts at `start`, which a union
/// advances past each input it serves and an ordered operator leaves at 0.
fn next_ready(
    inputs: &[Receiver<Msg>],
    live: &[usize],
    sel: &mut Select<'_>,
    start: &mut usize,
    rotate: bool,
) -> (usize, std::result::Result<Msg, RecvError>) {
    loop {
        for k in 0..live.len() {
            let slot = (*start + k) % live.len();
            let msg = match inputs[live[slot]].try_recv() {
                Ok(m) => Ok(m),
                Err(TryRecvError::Disconnected) => Err(RecvError),
                Err(TryRecvError::Empty) => continue,
            };
            if rotate {
                *start = (slot + 1) % live.len();
            }
            return (slot, msg);
        }
        sel.ready();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::tests::scan_ctx;
    use crossbeam::channel::{bounded, Sender};
    use sip_common::{ExecFailure, Row, Value};

    /// Logs what the driver hands it: `(input, rows)` per batch and
    /// `(input, usize::MAX)` per `Eof`. Hangs up after `hang_after` batches.
    #[derive(Default)]
    struct Log<const U: bool> {
        events: Vec<(usize, usize)>,
        hang_after: Option<usize>,
        closed: bool,
    }

    impl<const U: bool> PushOp for &mut Log<U> {
        const UNION: bool = U;
        fn push(&mut self, input: usize, payload: Payload) -> Result<()> {
            self.events.push((input, payload.len()));
            Ok(())
        }
        fn input_done(&mut self, input: usize) -> Result<()> {
            self.events.push((input, usize::MAX));
            Ok(())
        }
        fn hung_up(&self) -> bool {
            self.hang_after.is_some_and(|n| self.events.len() >= n)
        }
        fn close(self) -> Result<()> {
            self.closed = true;
            Ok(())
        }
    }

    fn one_row() -> Msg {
        Msg::Batch(sip_common::Batch::new(vec![Row::new(vec![Value::Int(1)])]))
    }

    /// `n` inputs, each pre-loaded with `batches` one-row batches and, if
    /// `eof`, a closing `Eof`.
    fn inputs(n: usize, batches: usize, eof: bool) -> (Vec<Sender<Msg>>, Vec<Receiver<Msg>>) {
        (0..n)
            .map(|_| {
                let (tx, rx) = bounded(batches + 1);
                for _ in 0..batches {
                    tx.send(one_row()).unwrap();
                }
                if eof {
                    tx.send(Msg::Eof).unwrap();
                }
                (tx, rx)
            })
            .unzip()
    }

    #[test]
    fn union_ends_after_every_eof_and_counts_every_batch() {
        let ctx = scan_ctx(4);
        let (txs, rxs) = inputs(3, 5, true);
        let mut log = Log::<true>::default();
        drive(&ctx, OpId(0), rxs, &mut log).unwrap();
        drop(txs);
        assert!(log.closed);
        let eofs: Vec<usize> = (log.events.iter())
            .filter(|e| e.1 == usize::MAX)
            .map(|e| e.0)
            .collect();
        assert_eq!(eofs.len(), 3, "every input's Eof: {eofs:?}");
        assert_eq!(log.events.len(), 3 * 5 + 3);
        let m = ctx.hub.op(OpId(0));
        assert_eq!(m.batches_in.load(Ordering::Relaxed), 15);
        assert_eq!(
            m.rows_in[0].load(Ordering::Relaxed),
            15,
            "unions count into slot 0"
        );
        assert_eq!(m.rows_in[1].load(Ordering::Relaxed), 0);
        // Ready inputs are served in rotation.
        assert_eq!(log.events[..3], [(0, 1), (1, 1), (2, 1)]);
    }

    #[test]
    fn disconnect_without_eof_is_an_attributed_error() {
        let ctx = scan_ctx(4);
        // Input 1 dies after one batch while input 0, two batches and an
        // Eof queued, is still live.
        let (_tx0, mut rxs) = inputs(1, 2, true);
        let (tx1, rx1) = inputs(1, 1, false);
        rxs.extend(rx1);
        drop(tx1);
        let mut log = Log::<true>::default();
        let err = drive(&ctx, OpId(0), rxs, &mut log).unwrap_err();
        assert_eq!(err.exec_class(), Some(ExecFailure::Disconnect));
        assert!(err.to_string().contains("op 0"), "{err}");
        assert_eq!(log.events, [(0, 1), (1, 1), (0, 1)], "input 0 still live");
        assert!(!log.closed, "a failed stream is not closed cleanly");
    }

    #[test]
    fn two_input_op_takes_input_0_first() {
        let ctx = scan_ctx(4);
        let (_txs, rxs) = inputs(2, 3, true);
        let mut log = Log::<false>::default();
        drive(&ctx, OpId(0), rxs, &mut log).unwrap();
        let max = usize::MAX;
        let side = |i| [(i, 1), (i, 1), (i, 1), (i, max)];
        assert_eq!(log.events, [side(0), side(1)].concat());
        let m = ctx.hub.op(OpId(0));
        assert_eq!(m.rows_in[0].load(Ordering::Relaxed), 3);
        assert_eq!(m.rows_in[1].load(Ordering::Relaxed), 3);
    }

    #[test]
    fn hangup_drops_inputs_so_blocked_producers_fail() {
        let ctx = scan_ctx(4);
        let (tx, rx) = bounded(1);
        // Without the hangup rule the driver would drain all 1000 batches.
        let producer = std::thread::spawn(move || {
            let sent = (0..1000).take_while(|_| tx.send(one_row()).is_ok()).count();
            let _ = tx.send(Msg::Eof);
            sent
        });
        let mut log = Log::<false> {
            hang_after: Some(2),
            ..Log::default()
        };
        drive(&ctx, OpId(0), vec![rx], &mut log).unwrap();
        assert!(log.closed);
        assert_eq!(log.events.len(), 2, "no batch pulled after the hangup");
        let sent = producer.join().unwrap();
        assert!(
            sent < 1000,
            "the blocked send fails once the input is dropped"
        );
    }
}
