//! The decomposed replay of one sampled cycle: the steps a tick hides
//! (`parse_query` → `parse_policy` → `preprocess` →
//! `fragment_query`/`assign_to_chain` → per-stage `Executor::compile`
//! and `Node::execute` → `postprocess` → protocol encode/decode), each
//! called through its public function and timed as its own span. It
//! runs on a clone of the runtime's source chain, outside the timed
//! cycle spans, so it never perturbs the cycle it samples.

use std::io::Cursor;
use std::sync::Arc;

use paradise_core::{
    assign_to_chain, fragment_query, postprocess, preprocess, AnonDecision, AnonStrategy,
    AssignmentPolicy, PreprocessOptions, ProcessingChain,
};
use paradise_engine::{Executor, Frame};
use paradise_policy::parse_policy;
use paradise_server::protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    Request, Response, TickEntry, DEFAULT_MAX_FRAME_BYTES,
};
use paradise_sql::parse_query;

use crate::measure::Tracer;

/// What one cycle did, as the replay re-enacts it.
pub struct ReplayInput<'a> {
    pub sql: &'a str,
    pub policy_xml: &'a str,
    pub module: &'a str,
    /// The runtime's source-of-record chain after the cycle's ingest.
    pub chain: &'a ProcessingChain,
    pub node: &'a str,
    pub table: &'a str,
    pub batch: &'a Frame,
    /// The frames the cycle's tick handed back to the caller.
    pub released: &'a [Frame],
    /// The cycle also swapped the policy and a registration, so its
    /// wire traffic carries SetPolicy/Register/RemoveQuery too.
    pub churn: bool,
}

/// Counts the replay observed.
pub struct ReplayOutcome {
    pub actions: usize,
    pub stages: usize,
    pub decision: &'static str,
    pub frame_bytes: usize,
}

pub fn replay(tr: &mut Tracer, input: &ReplayInput<'_>) -> Result<ReplayOutcome, String> {
    let root = tr.begin("replay");
    let outcome = run(tr, input);
    tr.end(root);
    outcome
}

fn run(tr: &mut Tracer, input: &ReplayInput<'_>) -> Result<ReplayOutcome, String> {
    let query = tr
        .time("sql.parse", || parse_query(input.sql))
        .map_err(|e| e.to_string())?;
    let policy = tr
        .time("policy.parse", || parse_policy(input.policy_xml))
        .map_err(|e| e.to_string())?;
    let module = policy
        .modules
        .into_iter()
        .next()
        .ok_or("policy has no module")?;
    let pre = tr
        .time("core.preprocess.rewrite", || {
            preprocess(&query, &module, &PreprocessOptions::default())
        })
        .map_err(|e| e.to_string())?;
    let stages = tr
        .time("core.fragment.fragment", || {
            fragment_query(&pre.query)
                .and_then(|plan| assign_to_chain(&plan, input.chain, AssignmentPolicy::default()))
        })
        .map_err(|e| e.to_string())?;

    let mut chain = input.chain.clone();
    let mut shipped: Option<Frame> = None;
    for (i, stage) in stages.iter().enumerate() {
        let node = chain.node_mut(&stage.node).map_err(|e| e.to_string())?;
        if let Some(frame) = shipped.take() {
            node.install_table(&stages[i - 1].publish_as, frame);
        }
        let plan = tr.time("engine.compile", || {
            Executor::new(&node.catalog).compile(&stage.fragment)
        });
        if let Ok(plan) = plan {
            node.seed_plan(&stage.fragment, Arc::new(plan));
        }
        let span = format!("nodes.execute.{}", stage.node);
        let out = tr
            .time(&span, || node.execute(&stage.fragment))
            .map_err(|e| e.to_string())?;
        shipped = Some(out);
    }
    let shipped = shipped.ok_or("fragmentation produced no stage")?;
    let post = tr
        .time("core.postprocess.anon", || {
            postprocess(shipped, &AnonStrategy::default())
        })
        .map_err(|e| e.to_string())?;
    let decision = match post.decision {
        AnonDecision::TupleWise { .. } => "tuple_wise",
        AnonDecision::ColumnWise { .. } => "column_wise",
        AnonDecision::Passthrough { .. } => "passthrough",
    };
    let frame_bytes = wire_roundtrip(tr, input)?;
    Ok(ReplayOutcome {
        actions: pre.actions.len(),
        stages: stages.len(),
        decision,
        frame_bytes,
    })
}

/// Encode the cycle's requests and replies as the server would frame
/// them, decode them back, and check the round trip is lossless.
/// Returns the framed bytes of the whole cycle.
fn wire_roundtrip(tr: &mut Tracer, input: &ReplayInput<'_>) -> Result<usize, String> {
    let mut requests = Vec::new();
    let mut responses = Vec::new();
    if input.churn {
        requests.push(Request::SetPolicy {
            module: input.module.into(),
            xml: input.policy_xml.into(),
            seq: 0,
        });
        requests.push(Request::Register {
            module: input.module.into(),
            sql: input.sql.into(),
            seq: 0,
        });
        requests.push(Request::RemoveQuery { handle: 0 });
        responses.extend([
            Response::Ok,
            Response::Registered { handle: 1 },
            Response::Ok,
        ]);
    }
    requests.push(Request::Ingest {
        node: input.node.into(),
        table: input.table.into(),
        frame: input.batch.clone(),
        seq: 0,
    });
    requests.push(Request::Tick { seq: 0 });
    responses.push(Response::Accepted { depth: 1 });
    responses.push(Response::TickResults {
        results: input
            .released
            .iter()
            .enumerate()
            .map(|(i, f)| TickEntry {
                handle: i as u64,
                result: Ok(f.clone()),
            })
            .collect(),
        deferred: Vec::new(),
    });

    let framed: Vec<Vec<u8>> = tr.time("server.encode", || {
        let payloads = requests
            .iter()
            .map(encode_request)
            .chain(responses.iter().map(encode_response));
        payloads
            .map(|payload| {
                let mut buf = Vec::with_capacity(payload.len() + 12);
                write_frame(&mut buf, &payload).expect("writing to a Vec cannot fail");
                buf
            })
            .collect()
    });
    let decoded = tr.time("server.decode", || {
        framed
            .iter()
            .enumerate()
            .map(|(i, buf)| {
                let payload = read_frame(&mut Cursor::new(buf), DEFAULT_MAX_FRAME_BYTES)?;
                if i < requests.len() {
                    decode_request(&payload).map(|r| r == requests[i])
                } else {
                    decode_response(&payload).map(|r| r == responses[i - requests.len()])
                }
            })
            .collect::<Result<Vec<bool>, _>>()
    });
    match decoded {
        Ok(same) if same.iter().all(|&s| s) => Ok(framed.iter().map(Vec::len).sum()),
        Ok(_) => Err("wire round trip changed a message".into()),
        Err(e) => Err(format!("wire round trip failed: {e}")),
    }
}
