//! The PIOUS extension experiment: coordinated parallel file I/O.
//!
//! Paper §3.2 notes the Beowulf "can use PIOUS as a parallel file system
//! for coordinated I/O activities" but never measures it; this module adds
//! that measurement (DESIGN.md §7). Faithful to the PIOUS architecture,
//! everything here is built *from ordinary PVM tasks* — exactly how PIOUS
//! ran on the real machine:
//!
//! * one **data server** task per node, serving reads/writes against a
//!   local segment file through the node's (instrumented) kernel;
//! * one **coordinator** task enforcing per-parafile sequential admission
//!   (the `essio-pfs` [`essio_pfs::Coordinator`] queue);
//! * a [`ParaFile`] client handle that plans stripe I/O with
//!   [`essio_pfs::plan_io`], obtains coordinator grants, and exchanges
//!   request/response messages with the data servers.
//!
//! The disk driver underneath sees the declustered traffic, so the study's
//! instrumentation observes coordinated parallel I/O spread over all
//! member disks — the extension figure in `EXPERIMENTS.md`.

use std::collections::hash_map::{Entry, HashMap};

use essio_apps::{AppCtx, CtxExt, SimFile};
use essio_kernel::Placement;
use essio_net::{NetOp, NetResult, TaskId};
use essio_pfs::{plan_io, segment_path, Admission, Coordinator, StripeSpec};

use crate::cluster::Beowulf;

/// Client → data server request.
pub const TAG_REQ: i32 = 401;
/// Data server → client response.
pub const TAG_RESP: i32 = 402;
/// Client → coordinator (begin/end).
pub const TAG_COORD: i32 = 403;
/// Coordinator → client grant.
pub const TAG_GRANT: i32 = 404;
/// Service shutdown.
pub const TAG_DOWN: i32 = 405;

const OP_READ: u8 = 0;
const OP_WRITE: u8 = 1;
const COORD_BEGIN: u8 = 0;
const COORD_END: u8 = 1;

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u16).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn get_str(buf: &[u8]) -> (String, &[u8]) {
    let len = u16::from_le_bytes(buf[..2].try_into().expect("length prefix")) as usize;
    let s = String::from_utf8(buf[2..2 + len].to_vec()).expect("utf8 path");
    (s, &buf[2 + len..])
}

/// The running PFS service handles.
#[derive(Debug, Clone)]
pub struct Service {
    /// Data server task per node (index = node id).
    pub servers: Vec<TaskId>,
    /// Coordinator task.
    pub coord: TaskId,
}

/// Spawn the data servers (one per node) and the coordinator (node 0).
/// Must be called before client tasks that use them are spawned.
pub fn spawn_service(bw: &mut Beowulf) -> Service {
    let nodes = bw.nodes();
    let mut servers = Vec::with_capacity(nodes as usize);
    for n in 0..nodes {
        let task = bw.spawn(n, "pfsd", 0, server_body);
        servers.push(task);
    }
    let coord = bw.spawn(0, "pfs-coord", 0, coordinator_body);
    Service { servers, coord }
}

/// Tell the whole service to exit (call from exactly one client when done).
pub async fn shutdown(ctx: &mut AppCtx, svc: &Service) {
    for &s in &svc.servers {
        ctx.net(NetOp::Send {
            to: s,
            tag: TAG_DOWN,
            data: Vec::new(),
        })
        .await;
    }
    ctx.net(NetOp::Send {
        to: svc.coord,
        tag: TAG_DOWN,
        data: Vec::new(),
    })
    .await;
}

/// Data server main loop: serve segment reads/writes until shutdown.
async fn server_body(mut ctx: AppCtx) -> i32 {
    let mut files: HashMap<String, SimFile> = Default::default();
    loop {
        let msg = match ctx
            .net(NetOp::Recv {
                from: None,
                tag: None,
            })
            .await
        {
            NetResult::Message(m) => m,
            other => panic!("server recv: {other:?}"),
        };
        match msg.tag {
            TAG_DOWN => return 0,
            TAG_REQ => {
                let op = msg.data[0];
                let (path, rest) = get_str(&msg.data[1..]);
                let offset = u64::from_le_bytes(rest[..8].try_into().expect("offset"));
                let rest = &rest[8..];
                let file = match files.entry(path) {
                    Entry::Occupied(e) => e.into_mut(),
                    Entry::Vacant(e) => {
                        let file = SimFile::open(&mut ctx, e.key(), true, Placement::User).await;
                        e.insert(file)
                    }
                };
                let mut resp = Vec::new();
                match op {
                    OP_READ => {
                        let len = u32::from_le_bytes(rest[..4].try_into().expect("len"));
                        file.seek(offset);
                        let mut data = file.read(&mut ctx, len).await;
                        // Segment files are sparse-extended by writers; a
                        // read past the current end returns zeros, like a
                        // freshly-created PIOUS segment.
                        data.resize(len as usize, 0);
                        resp = data;
                    }
                    OP_WRITE => {
                        file.seek(offset);
                        file.write(&mut ctx, rest.to_vec()).await;
                    }
                    other => panic!("bad pfs op {other}"),
                }
                ctx.compute(150).await; // request parsing + reply marshalling
                ctx.net(NetOp::Send {
                    to: msg.from,
                    tag: TAG_RESP,
                    data: resp,
                })
                .await;
            }
            other => panic!("server got unexpected tag {other}"),
        }
    }
}

/// Coordinator main loop: per-parafile sequential admission.
async fn coordinator_body(mut ctx: AppCtx) -> i32 {
    let mut coord = Coordinator::new();
    let mut task_of_op: std::collections::HashMap<u64, TaskId> = Default::default();
    loop {
        let msg = match ctx
            .net(NetOp::Recv {
                from: None,
                tag: None,
            })
            .await
        {
            NetResult::Message(m) => m,
            other => panic!("coordinator recv: {other:?}"),
        };
        match msg.tag {
            TAG_DOWN => return 0,
            TAG_COORD => {
                let verb = msg.data[0];
                let op_id = u64::from_le_bytes(msg.data[1..9].try_into().expect("op id"));
                let (file, _) = get_str(&msg.data[9..]);
                ctx.compute(80).await;
                match verb {
                    COORD_BEGIN => {
                        task_of_op.insert(op_id, msg.from);
                        if coord.begin(&file, op_id) == Admission::Admitted {
                            ctx.net(NetOp::Send {
                                to: msg.from,
                                tag: TAG_GRANT,
                                data: Vec::new(),
                            })
                            .await;
                        }
                    }
                    COORD_END => {
                        task_of_op.remove(&op_id);
                        if let Some(next) = coord.finish(&file, op_id) {
                            let to = *task_of_op.get(&next).expect("queued op registered");
                            ctx.net(NetOp::Send {
                                to,
                                tag: TAG_GRANT,
                                data: Vec::new(),
                            })
                            .await;
                        }
                    }
                    other => panic!("bad coord verb {other}"),
                }
            }
            other => panic!("coordinator got unexpected tag {other}"),
        }
    }
}

/// A client handle to one parafile.
#[derive(Debug)]
pub struct ParaFile {
    /// Parafile name.
    pub name: String,
    /// Stripe layout.
    pub spec: StripeSpec,
    svc: Service,
    my_task: TaskId,
    op_seq: u64,
}

impl ParaFile {
    /// Open a parafile handle. `my_task` is the calling task's id (known at
    /// spawn time).
    pub fn open(name: &str, spec: StripeSpec, svc: &Service, my_task: TaskId) -> ParaFile {
        assert!(
            spec.servers
                .iter()
                .all(|s| (*s as usize) < svc.servers.len()),
            "stripe references a server outside the service"
        );
        ParaFile {
            name: name.to_string(),
            spec,
            svc: svc.clone(),
            my_task,
            op_seq: 0,
        }
    }

    async fn begin(&mut self, ctx: &mut AppCtx) -> u64 {
        let op_id = (self.my_task as u64) << 32 | self.op_seq;
        self.op_seq += 1;
        let mut data = vec![COORD_BEGIN];
        data.extend_from_slice(&op_id.to_le_bytes());
        put_str(&mut data, &self.name);
        ctx.net(NetOp::Send {
            to: self.svc.coord,
            tag: TAG_COORD,
            data,
        })
        .await;
        match ctx
            .net(NetOp::Recv {
                from: Some(self.svc.coord),
                tag: Some(TAG_GRANT),
            })
            .await
        {
            NetResult::Message(_) => op_id,
            other => panic!("grant: {other:?}"),
        }
    }

    async fn end(&self, ctx: &mut AppCtx, op_id: u64) {
        let mut data = vec![COORD_END];
        data.extend_from_slice(&op_id.to_le_bytes());
        put_str(&mut data, &self.name);
        ctx.net(NetOp::Send {
            to: self.svc.coord,
            tag: TAG_COORD,
            data,
        })
        .await;
    }

    /// Coordinated write of `data` at parafile offset `offset`.
    pub async fn write(&mut self, ctx: &mut AppCtx, offset: u64, data: &[u8]) {
        let op_id = self.begin(ctx).await;
        let plan = plan_io(&self.spec, offset, data.len() as u32);
        let mut consumed = 0usize;
        // Issue every segment write, then collect the acks.
        for seg in &plan {
            let mut req = vec![OP_WRITE];
            put_str(&mut req, &segment_path(&self.name, seg.server));
            req.extend_from_slice(&seg.offset.to_le_bytes());
            req.extend_from_slice(&data[consumed..consumed + seg.len as usize]);
            consumed += seg.len as usize;
            ctx.net(NetOp::Send {
                to: self.svc.servers[seg.server as usize],
                tag: TAG_REQ,
                data: req,
            })
            .await;
        }
        for seg in &plan {
            match ctx
                .net(NetOp::Recv {
                    from: Some(self.svc.servers[seg.server as usize]),
                    tag: Some(TAG_RESP),
                })
                .await
            {
                NetResult::Message(_) => {}
                other => panic!("write ack: {other:?}"),
            }
        }
        self.end(ctx, op_id).await;
    }

    /// Coordinated read of `len` bytes at parafile offset `offset`.
    pub async fn read(&mut self, ctx: &mut AppCtx, offset: u64, len: u32) -> Vec<u8> {
        let op_id = self.begin(ctx).await;
        let plan = plan_io(&self.spec, offset, len);
        for seg in &plan {
            let mut req = vec![OP_READ];
            put_str(&mut req, &segment_path(&self.name, seg.server));
            req.extend_from_slice(&seg.offset.to_le_bytes());
            req.extend_from_slice(&seg.len.to_le_bytes());
            ctx.net(NetOp::Send {
                to: self.svc.servers[seg.server as usize],
                tag: TAG_REQ,
                data: req,
            })
            .await;
        }
        let mut out = Vec::with_capacity(len as usize);
        for seg in &plan {
            match ctx
                .net(NetOp::Recv {
                    from: Some(self.svc.servers[seg.server as usize]),
                    tag: Some(TAG_RESP),
                })
                .await
            {
                NetResult::Message(m) => out.extend_from_slice(&m.data),
                other => panic!("read resp: {other:?}"),
            }
        }
        self.end(ctx, op_id).await;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::BeowulfConfig;
    use essio_trace::Op;

    #[test]
    fn parafile_roundtrip_stripes_over_both_disks() {
        let mut bw = Beowulf::new(BeowulfConfig {
            nodes: 2,
            ..Default::default()
        });
        let svc = spawn_service(&mut bw);
        let my_task = bw.next_task();
        let svc2 = svc.clone();
        bw.spawn(0, "client", 1_000, move |mut ctx| async move {
            let spec = StripeSpec::new(1024, vec![0, 1]);
            let mut pf = ParaFile::open("matrix", spec, &svc2, my_task);
            let payload: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
            pf.write(&mut ctx, 0, &payload).await;
            let back = pf.read(&mut ctx, 0, 8192).await;
            assert_eq!(back, payload, "declustered roundtrip");
            // Unaligned sub-range.
            let mid = pf.read(&mut ctx, 1500, 3000).await;
            assert_eq!(mid, payload[1500..4500], "unaligned read");
            shutdown(&mut ctx, &svc2).await;
            0
        });
        bw.run_apps(12_000_000);
        assert!(bw.exits().iter().all(|e| e.code == 0), "{:?}", bw.exits());
        let trace = bw.take_trace();
        // The striped write landed on BOTH node disks.
        let n0 = trace
            .iter()
            .any(|r| r.node == 0 && r.op == Op::Write && (60_000..940_000).contains(&r.sector));
        let n1 = trace
            .iter()
            .any(|r| r.node == 1 && r.op == Op::Write && (60_000..940_000).contains(&r.sector));
        assert!(n0 && n1, "declustering must hit both disks");
    }

    #[test]
    fn coordinator_serializes_two_clients_on_one_parafile() {
        let mut bw = Beowulf::new(BeowulfConfig {
            nodes: 2,
            ..Default::default()
        });
        let svc = spawn_service(&mut bw);
        // Two clients hammer the same parafile; sequential consistency
        // means each read observes a complete write (all-old or all-new),
        // never a torn mixture.
        for c in 0..2u8 {
            let svc_c = svc.clone();
            let my_task = bw.next_task();
            bw.spawn(c, "client", 1_000, move |mut ctx| async move {
                let spec = StripeSpec::new(512, vec![0, 1]);
                let mut pf = ParaFile::open("shared", spec, &svc_c, my_task);
                let fill = vec![0x10 + c; 4096];
                for _ in 0..4 {
                    pf.write(&mut ctx, 0, &fill).await;
                    let got = pf.read(&mut ctx, 0, 4096).await;
                    let first = got[0];
                    assert!(got.iter().all(|&b| b == first), "torn read: {got:?}");
                    assert!(first == 0x10 || first == 0x11);
                }
                if c == 0 {
                    // Give the other client time, then shut down.
                    ctx.compute(2_000_000).await;
                    shutdown(&mut ctx, &svc_c).await;
                }
                0
            });
        }
        bw.run_apps(12_000_000);
        assert!(bw.exits().iter().all(|e| e.code == 0), "{:?}", bw.exits());
    }
}
