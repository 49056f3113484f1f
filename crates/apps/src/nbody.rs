//! The oct-tree N-body code.
//!
//! Paper §3.3: *"N-body simulations have been used to study a wide variety
//! of dynamic astrophysical systems ... Our N-body code uses an oct-tree
//! algorithm with 8K particles per processor, which resulted in 303 million
//! total particle interactions [Olson & Dorband 1994]."*
//!
//! [`tree`] is a real Barnes–Hut implementation: arena-allocated octree,
//! center-of-mass aggregation, θ-based multipole acceptance, Plummer-sphere
//! initial conditions, leapfrog (kick-drift-kick) integration — with tests
//! pinning force accuracy against direct summation, momentum conservation,
//! and tree partition invariants.
//!
//! [`run`] wires it to the node: modest text, a tree-churning footprint,
//! per-step exchange of top-level cell summaries over PVM, and the paper's
//! I/O profile — *"consistent 1 KB block I/O ... more 2 KB requests and a
//! few page swaps than occurred during PPM"* (§4.2), 13 % reads, with only
//! statistical summaries written.

use essio_kernel::Placement;
use essio_net::{NetOp, NetResult};
use essio_sim::SimRng;

use crate::runtime::{cost, load_program, AppCtx, CtxExt, PagedRegion, SimFile};

/// The real gravity solver.
pub mod tree {
    use essio_sim::SimRng;

    /// Gravitational softening (Plummer kernel).
    pub const SOFTENING: f64 = 0.02;

    /// A point mass.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Body {
        /// Position.
        pub pos: [f64; 3],
        /// Velocity.
        pub vel: [f64; 3],
        /// Mass.
        pub mass: f64,
    }

    /// Sample `n` bodies from a Plummer sphere (standard astrophysical
    /// initial condition; Aarseth, Hénon & Wielen 1974 recipe), total mass 1,
    /// at virial-ish velocity scale.
    pub fn plummer(n: usize, rng: &mut SimRng) -> Vec<Body> {
        assert!(n > 0);
        let mut bodies = Vec::with_capacity(n);
        let m = 1.0 / n as f64;
        for _ in 0..n {
            // Radius from the cumulative mass profile.
            let x = rng.range_f64(1e-6, 0.999);
            let r = (x.powf(-2.0 / 3.0) - 1.0).powf(-0.5);
            let pos = iso_vector(rng, r.min(8.0));
            // Velocity: rejection-sample q = v/v_esc from g(q) = q²(1-q²)^3.5.
            let q = loop {
                let q = rng.f64();
                let g = rng.f64() * 0.1;
                if g < q * q * (1.0 - q * q).powf(3.5) {
                    break q;
                }
            };
            let v_esc = std::f64::consts::SQRT_2 * (1.0 + r * r).powf(-0.25);
            let vel = iso_vector(rng, q * v_esc);
            bodies.push(Body { pos, vel, mass: m });
        }
        bodies
    }

    fn iso_vector(rng: &mut SimRng, radius: f64) -> [f64; 3] {
        let z = rng.range_f64(-1.0, 1.0);
        let phi = rng.range_f64(0.0, 2.0 * std::f64::consts::PI);
        let s = (1.0 - z * z).sqrt();
        [radius * s * phi.cos(), radius * s * phi.sin(), radius * z]
    }

    #[derive(Debug, Clone)]
    enum NodeKind {
        Empty,
        Leaf(usize),
        Internal([Option<usize>; 8]),
    }

    #[derive(Debug, Clone)]
    struct Node {
        center: [f64; 3],
        half: f64,
        kind: NodeKind,
        mass: f64,
        com: [f64; 3],
    }

    /// An arena-allocated Barnes–Hut octree.
    #[derive(Debug)]
    pub struct Octree {
        nodes: Vec<Node>,
        root: usize,
    }

    impl Octree {
        /// Build over `bodies`.
        pub fn build(bodies: &[Body]) -> Octree {
            assert!(!bodies.is_empty());
            let mut half: f64 = 1.0;
            for b in bodies {
                for c in b.pos {
                    half = half.max(c.abs() * 1.01);
                }
            }
            let mut t = Octree {
                nodes: vec![Node {
                    center: [0.0; 3],
                    half,
                    kind: NodeKind::Empty,
                    mass: 0.0,
                    com: [0.0; 3],
                }],
                root: 0,
            };
            for (i, b) in bodies.iter().enumerate() {
                t.insert(t.root, i, b, bodies, 0);
            }
            t.aggregate(t.root, bodies);
            t
        }

        /// Number of arena nodes (diagnostic; drives the footprint model).
        pub fn node_count(&self) -> usize {
            self.nodes.len()
        }

        fn octant(center: &[f64; 3], p: &[f64; 3]) -> usize {
            (usize::from(p[0] >= center[0]))
                | (usize::from(p[1] >= center[1]) << 1)
                | (usize::from(p[2] >= center[2]) << 2)
        }

        fn child_center(center: &[f64; 3], half: f64, oct: usize) -> [f64; 3] {
            let q = half / 2.0;
            [
                center[0] + if oct & 1 != 0 { q } else { -q },
                center[1] + if oct & 2 != 0 { q } else { -q },
                center[2] + if oct & 4 != 0 { q } else { -q },
            ]
        }

        fn insert(
            &mut self,
            node: usize,
            body_idx: usize,
            body: &Body,
            bodies: &[Body],
            depth: usize,
        ) {
            match self.nodes[node].kind {
                NodeKind::Empty => {
                    self.nodes[node].kind = NodeKind::Leaf(body_idx);
                }
                NodeKind::Leaf(existing) => {
                    if depth > 64 {
                        // Coincident points: merge into the leaf (keep the
                        // first; its aggregate mass is handled in aggregate()
                        // via position equality).
                        return;
                    }
                    self.nodes[node].kind = NodeKind::Internal([None; 8]);
                    self.insert_into_child(node, existing, &bodies[existing], bodies, depth);
                    self.insert_into_child(node, body_idx, body, bodies, depth);
                }
                NodeKind::Internal(_) => {
                    self.insert_into_child(node, body_idx, body, bodies, depth);
                }
            }
        }

        fn insert_into_child(
            &mut self,
            node: usize,
            body_idx: usize,
            body: &Body,
            bodies: &[Body],
            depth: usize,
        ) {
            let (center, half) = (self.nodes[node].center, self.nodes[node].half);
            let oct = Self::octant(&center, &body.pos);
            let existing_child = {
                let NodeKind::Internal(ref kids) = self.nodes[node].kind else {
                    unreachable!("caller ensured internal")
                };
                kids[oct]
            };
            let child = match existing_child {
                Some(c) => c,
                None => {
                    let new_idx = self.nodes.len();
                    self.nodes.push(Node {
                        center: Self::child_center(&center, half, oct),
                        half: half / 2.0,
                        kind: NodeKind::Empty,
                        mass: 0.0,
                        com: [0.0; 3],
                    });
                    if let NodeKind::Internal(ref mut kids) = self.nodes[node].kind {
                        kids[oct] = Some(new_idx);
                    }
                    new_idx
                }
            };
            self.insert(child, body_idx, body, bodies, depth + 1);
        }

        fn aggregate(&mut self, node: usize, bodies: &[Body]) -> (f64, [f64; 3]) {
            let kind = self.nodes[node].kind.clone();
            let (mass, com) = match kind {
                NodeKind::Empty => (0.0, self.nodes[node].center),
                NodeKind::Leaf(i) => (bodies[i].mass, bodies[i].pos),
                NodeKind::Internal(kids) => {
                    let mut m = 0.0;
                    let mut c = [0.0; 3];
                    for child in kids.into_iter().flatten() {
                        let (cm, cc) = self.aggregate(child, bodies);
                        m += cm;
                        for k in 0..3 {
                            c[k] += cm * cc[k];
                        }
                    }
                    if m > 0.0 {
                        for v in &mut c {
                            *v /= m;
                        }
                    }
                    (m, c)
                }
            };
            self.nodes[node].mass = mass;
            self.nodes[node].com = com;
            (mass, com)
        }

        /// Total mass aggregated at the root.
        pub fn total_mass(&self) -> f64 {
            self.nodes[self.root].mass
        }

        /// Root-cell summary (the quantity exchanged between nodes).
        pub fn root_summary(&self) -> (f64, [f64; 3]) {
            (self.nodes[self.root].mass, self.nodes[self.root].com)
        }

        /// Barnes–Hut acceleration on `body` with opening angle `theta`.
        /// Returns the acceleration and the number of interactions used.
        pub fn accel(&self, body: &Body, bodies: &[Body], theta: f64) -> ([f64; 3], u64) {
            self.accel_with(body, bodies, theta, &mut Vec::new())
        }

        /// [`Octree::accel`] walking on the caller's traversal `stack`, so a
        /// force pass over many bodies reuses one allocation.
        fn accel_with(
            &self,
            body: &Body,
            bodies: &[Body],
            theta: f64,
            stack: &mut Vec<usize>,
        ) -> ([f64; 3], u64) {
            let mut acc = [0.0; 3];
            let mut interactions = 0;
            stack.clear();
            stack.push(self.root);
            while let Some(node) = stack.pop() {
                let n = &self.nodes[node];
                if n.mass == 0.0 {
                    continue;
                }
                let d = [
                    n.com[0] - body.pos[0],
                    n.com[1] - body.pos[1],
                    n.com[2] - body.pos[2],
                ];
                let dist2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                let use_cell = match n.kind {
                    NodeKind::Leaf(i) => {
                        if bodies[i].pos == body.pos {
                            continue; // self (or coincident twin)
                        }
                        true
                    }
                    NodeKind::Internal(_) => {
                        let size = 2.0 * n.half;
                        size * size < theta * theta * dist2
                    }
                    NodeKind::Empty => false,
                };
                if use_cell {
                    let r2 = dist2 + SOFTENING * SOFTENING;
                    let inv_r3 = 1.0 / (r2 * r2.sqrt());
                    for k in 0..3 {
                        acc[k] += n.mass * d[k] * inv_r3;
                    }
                    interactions += 1;
                } else if let NodeKind::Internal(kids) = &n.kind {
                    stack.extend(kids.iter().flatten());
                }
            }
            (acc, interactions)
        }
    }

    /// Direct O(N²) acceleration (the accuracy oracle for tests).
    pub fn direct_accel(i: usize, bodies: &[Body]) -> [f64; 3] {
        let mut acc = [0.0; 3];
        for (j, b) in bodies.iter().enumerate() {
            if j == i {
                continue;
            }
            let d = [
                b.pos[0] - bodies[i].pos[0],
                b.pos[1] - bodies[i].pos[1],
                b.pos[2] - bodies[i].pos[2],
            ];
            let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + SOFTENING * SOFTENING;
            let inv_r3 = 1.0 / (r2 * r2.sqrt());
            for k in 0..3 {
                acc[k] += b.mass * d[k] * inv_r3;
            }
        }
        acc
    }

    /// A leapfrog (kick-drift-kick) integrator that carries each step's
    /// closing force pass into the next step's opening kick.
    ///
    /// The tree and the accelerations depend only on positions and masses,
    /// and the closing half-kick changes velocities only. So the forces the
    /// closing pass computes are exactly the forces the next step opens
    /// with: caching them (and the root summary of the tree they came from)
    /// gives one tree build and one force walk per step, bit-identical to
    /// building and walking twice.
    #[derive(Debug)]
    pub struct Leapfrog {
        bodies: Vec<Body>,
        theta: f64,
        accels: Vec<[f64; 3]>,
        stack: Vec<usize>,
        /// Interactions of the last force pass.
        interactions: u64,
        /// Root summary of the tree the last force pass built.
        root: (f64, [f64; 3]),
    }

    impl Leapfrog {
        /// Take ownership of `bodies` and run the initial force pass with
        /// opening angle `theta`.
        pub fn new(bodies: Vec<Body>, theta: f64) -> Leapfrog {
            let mut lf = Leapfrog {
                accels: vec![[0.0; 3]; bodies.len()],
                bodies,
                theta,
                stack: Vec::new(),
                interactions: 0,
                root: (0.0, [0.0; 3]),
            };
            lf.force_pass();
            lf
        }

        /// Build the tree over the current positions and cache each body's
        /// acceleration, the interaction count and the root summary.
        fn force_pass(&mut self) {
            let tree = Octree::build(&self.bodies);
            self.root = tree.root_summary();
            self.interactions = 0;
            for (b, a) in self.bodies.iter().zip(self.accels.iter_mut()) {
                let (acc, n) = tree.accel_with(b, &self.bodies, self.theta, &mut self.stack);
                *a = acc;
                self.interactions += n;
            }
        }

        /// One step: half-kick with the cached accelerations, drift, force
        /// pass over the new positions, half-kick. Returns the interactions
        /// of both force passes the step uses (the cached one and the new).
        #[allow(clippy::needless_range_loop)]
        pub fn step(&mut self, dt: f64) -> u64 {
            let opening = self.interactions;
            for (b, a) in self.bodies.iter_mut().zip(&self.accels) {
                for k in 0..3 {
                    b.vel[k] += 0.5 * dt * a[k];
                    b.pos[k] += dt * b.vel[k];
                }
            }
            self.force_pass();
            for (b, a) in self.bodies.iter_mut().zip(&self.accels) {
                for k in 0..3 {
                    b.vel[k] += 0.5 * dt * a[k];
                }
            }
            opening + self.interactions
        }

        /// Root-cell summary of the tree over the current positions (the
        /// quantity exchanged between nodes).
        pub fn root_summary(&self) -> (f64, [f64; 3]) {
            self.root
        }

        /// The bodies as of the last step.
        pub fn bodies(&self) -> &[Body] {
            &self.bodies
        }

        /// Give the bodies back.
        pub fn into_bodies(self) -> Vec<Body> {
            self.bodies
        }
    }

    /// One leapfrog (kick-drift-kick) step with no forces carried over:
    /// a fresh [`Leapfrog`] stepped once. Returns interactions performed.
    pub fn leapfrog_step(bodies: &mut [Body], dt: f64, theta: f64) -> u64 {
        let mut lf = Leapfrog::new(bodies.to_vec(), theta);
        let interactions = lf.step(dt);
        bodies.copy_from_slice(lf.bodies());
        interactions
    }

    /// Total momentum.
    #[allow(clippy::needless_range_loop)]
    pub fn momentum(bodies: &[Body]) -> [f64; 3] {
        let mut p = [0.0; 3];
        for b in bodies {
            for k in 0..3 {
                p[k] += b.mass * b.vel[k];
            }
        }
        p
    }

    /// Kinetic + potential energy (direct sum; oracle for drift tests).
    pub fn total_energy(bodies: &[Body]) -> f64 {
        let mut e = 0.0;
        for b in bodies {
            let v2 = b.vel[0] * b.vel[0] + b.vel[1] * b.vel[1] + b.vel[2] * b.vel[2];
            e += 0.5 * b.mass * v2;
        }
        for i in 0..bodies.len() {
            for j in i + 1..bodies.len() {
                let d = [
                    bodies[j].pos[0] - bodies[i].pos[0],
                    bodies[j].pos[1] - bodies[i].pos[1],
                    bodies[j].pos[2] - bodies[i].pos[2],
                ];
                let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + SOFTENING * SOFTENING).sqrt();
                e -= bodies[i].mass * bodies[j].mass / r;
            }
        }
        e
    }
}

/// Workload configuration.
#[derive(Debug, Clone)]
pub struct NbodyConfig {
    /// Particles per node (scaled; paper: 8192).
    pub particles: usize,
    /// Steps to run.
    pub steps: usize,
    /// Multipole acceptance parameter.
    pub theta: f64,
    /// Timestep.
    pub dt: f64,
    /// Virtual run duration target, seconds.
    pub duration_s: f64,
    /// Paper-scale footprint: particle arrays + tree arena for 8 K bodies
    /// (~3 MB ≈ 750 pages).
    pub footprint_pages: u32,
    /// Executable path.
    pub text_path: String,
    /// Output path.
    pub out_path: String,
    /// Append a summary every this many steps.
    pub stats_every: usize,
    /// Dump a small particle snapshot every this many steps (0 = never).
    /// These ~2.5 KB dumps are what give N-body its distinctive 2 KB
    /// request population (Figure 4: "more 2 KB requests ... than occurred
    /// during PPM").
    pub snap_every: usize,
    /// Snapshot size in bytes.
    pub snap_bytes: usize,
    /// RNG seed for the Plummer sampling.
    pub seed: u64,
    /// This node's rank.
    pub rank: u32,
    /// Participating tasks (0/1 ⇒ serial).
    pub ntasks: u32,
    /// Task id of rank 0.
    pub task_base: u32,
}

impl Default for NbodyConfig {
    fn default() -> Self {
        Self {
            particles: 256,
            steps: 40,
            theta: 0.6,
            dt: 0.01,
            duration_s: 250.0,
            footprint_pages: 750,
            text_path: "/bin/nbody".into(),
            out_path: "/out/nbody.dat".into(),
            stats_every: 5,
            snap_every: 4,
            snap_bytes: 2560,
            seed: 42,
            rank: 0,
            ntasks: 0,
            task_base: 0,
        }
    }
}

/// Cell-summary exchange tag.
pub const TAG_CELLS: i32 = 301;

/// Run the N-body workload. Returns (total interactions, final bodies).
pub async fn run(cfg: &NbodyConfig, ctx: &mut AppCtx) -> (u64, Vec<tree::Body>) {
    load_program(ctx, &cfg.text_path).await;
    let region = PagedRegion::map(ctx, cfg.footprint_pages).await;
    let mut rng = SimRng::new(cfg.seed ^ (cfg.rank as u64) << 32);
    // Initialization sweeps the particle arrays once.
    region.touch_fraction(ctx, 0.0, 0.3).await;
    let mut sim = tree::Leapfrog::new(tree::plummer(cfg.particles, &mut rng), cfg.theta);
    cost::flops(ctx, (cfg.particles * 50) as f64).await;

    let mut out = SimFile::open(ctx, &cfg.out_path, true, Placement::User).await;
    let step_us = (cfg.duration_s * 1e6 / cfg.steps as f64) as u64;
    let mut total_interactions = 0u64;

    for step in 0..cfg.steps {
        // Exchange top-cell summaries with every other node (the "locally
        // essential tree" handshake, collapsed to the root level).
        if cfg.ntasks > 1 {
            let (m, com) = sim.root_summary();
            let mut payload = Vec::with_capacity(32);
            payload.extend_from_slice(&m.to_le_bytes());
            for c in com {
                payload.extend_from_slice(&c.to_le_bytes());
            }
            for r in 0..cfg.ntasks {
                if r != cfg.rank {
                    ctx.net(NetOp::Send {
                        to: cfg.task_base + r,
                        tag: TAG_CELLS,
                        data: payload.clone(),
                    })
                    .await;
                }
            }
            for _ in 1..cfg.ntasks {
                match ctx
                    .net(NetOp::Recv {
                        from: None,
                        tag: Some(TAG_CELLS),
                    })
                    .await
                {
                    NetResult::Message(_) => {}
                    other => panic!("cell recv: {other:?}"),
                }
            }
        }
        // Tree build + force walk churn the footprint: particles (lower
        // third) every step, tree arena (upper two thirds) rebuilt with a
        // moving window — the modest-but-steady fault source of Figure 4.
        region.touch_fraction(ctx, 0.0, 0.3).await;
        let w0 = 0.3 + 0.7 * ((step % 7) as f64 / 7.0) * 0.6;
        region.touch_fraction(ctx, w0, (w0 + 0.35).min(1.0)).await;
        total_interactions += sim.step(cfg.dt);
        ctx.compute(step_us).await;

        if (step + 1) % cfg.stats_every == 0 {
            let p = tree::momentum(sim.bodies());
            let line = format!(
                "step {:>4} interactions {:>12} |p| {:.3e}\n",
                step + 1,
                total_interactions,
                (p[0] * p[0] + p[1] * p[1] + p[2] * p[2]).sqrt()
            );
            out.append(ctx, line.into_bytes()).await;
        }
        if cfg.snap_every > 0 && (step + 1) % cfg.snap_every == 0 {
            // Particle-subset snapshot (restart seed): positions of the
            // first k bodies, padded to the configured dump size.
            let mut snap = Vec::with_capacity(cfg.snap_bytes);
            'fill: for b in sim.bodies() {
                for c in b.pos {
                    snap.extend_from_slice(&c.to_le_bytes());
                    if snap.len() >= cfg.snap_bytes {
                        break 'fill;
                    }
                }
            }
            snap.resize(cfg.snap_bytes, 0);
            out.append(ctx, snap).await;
        }
    }
    let line = format!(
        "final particles {} interactions {}\n",
        cfg.particles, total_interactions
    );
    out.append(ctx, line.into_bytes()).await;
    out.fsync(ctx).await;
    out.close(ctx).await;
    (total_interactions, sim.into_bodies())
}

#[cfg(test)]
mod tests {
    use super::tree::*;
    use essio_sim::SimRng;

    fn sample(n: usize, seed: u64) -> Vec<Body> {
        plummer(n, &mut SimRng::new(seed))
    }

    #[test]
    fn plummer_total_mass_is_one() {
        let b = sample(500, 1);
        let m: f64 = b.iter().map(|x| x.mass).sum();
        assert!((m - 1.0).abs() < 1e-12);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn plummer_is_roughly_isotropic() {
        let b = sample(4000, 2);
        let com: [f64; 3] = b.iter().fold([0.0; 3], |mut c, x| {
            for k in 0..3 {
                c[k] += x.mass * x.pos[k];
            }
            c
        });
        for c in com {
            assert!(c.abs() < 0.1, "center of mass {com:?}");
        }
    }

    #[test]
    fn tree_aggregates_total_mass() {
        let b = sample(300, 3);
        let t = Octree::build(&b);
        assert!((t.total_mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn tree_com_matches_direct_com() {
        let b = sample(300, 4);
        let t = Octree::build(&b);
        let (_, com) = t.root_summary();
        let mut direct = [0.0; 3];
        for x in &b {
            for k in 0..3 {
                direct[k] += x.mass * x.pos[k];
            }
        }
        for k in 0..3 {
            assert!((com[k] - direct[k]).abs() < 1e-10);
        }
    }

    /// Relative RMS error of BH accelerations vs. direct summation.
    fn rms_error(bodies: &[Body], theta: f64) -> (f64, u64) {
        let t = Octree::build(bodies);
        let mut err2 = 0.0;
        let mut mag2 = 0.0;
        let mut inter = 0u64;
        for i in 0..bodies.len() {
            let (a, n) = t.accel(&bodies[i], bodies, theta);
            inter += n;
            let d = direct_accel(i, bodies);
            err2 += (a[0] - d[0]).powi(2) + (a[1] - d[1]).powi(2) + (a[2] - d[2]).powi(2);
            mag2 += d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
        }
        ((err2 / mag2).sqrt(), inter)
    }

    #[test]
    fn small_theta_approaches_direct_sum() {
        // θ = 0.05 almost never accepts a multipole; residual error is the
        // tiny monopole truncation of the few far cells it does accept.
        let b = sample(150, 5);
        let (err, _) = rms_error(&b, 0.05);
        assert!(err < 1e-4, "θ→0 must approach direct sum, rms err {err}");
        // And strictly better than a loose opening angle.
        let (err_loose, _) = rms_error(&b, 0.9);
        assert!(err < err_loose / 10.0, "{err} vs {err_loose}");
    }

    #[test]
    fn moderate_theta_is_accurate_but_cheaper() {
        let b = sample(400, 6);
        let (err, bh_inter) = rms_error(&b, 0.7);
        assert!(err < 0.05, "θ=0.7 rms accuracy, got {err}");
        let direct_inter = (b.len() * (b.len() - 1)) as u64;
        assert!(
            bh_inter < direct_inter / 2,
            "tree must beat direct: {bh_inter} vs {direct_inter}"
        );
    }

    #[test]
    fn leapfrog_conserves_momentum() {
        let mut b = sample(200, 7);
        // Exact force symmetry isn't guaranteed by BH, so zero net momentum
        // stays small rather than zero.
        let p0 = momentum(&b);
        for _ in 0..10 {
            leapfrog_step(&mut b, 0.01, 0.6);
        }
        let p1 = momentum(&b);
        let drift =
            ((p1[0] - p0[0]).powi(2) + (p1[1] - p0[1]).powi(2) + (p1[2] - p0[2]).powi(2)).sqrt();
        assert!(drift < 5e-3, "momentum drift {drift}");
    }

    #[test]
    fn leapfrog_energy_drift_is_bounded() {
        let mut b = sample(120, 8);
        let e0 = total_energy(&b);
        for _ in 0..20 {
            leapfrog_step(&mut b, 0.005, 0.5);
        }
        let e1 = total_energy(&b);
        assert!(
            ((e1 - e0) / e0.abs()) < 0.05,
            "energy drift {} → {}",
            e0,
            e1
        );
    }

    #[test]
    fn leapfrog_output_is_bit_pinned() {
        // Plummer 256, seed 42, 40 steps at the workload's dt and θ: FNV-1a
        // 64 over every body's position and velocity bits, then the total
        // interaction count. Any change to traversal or summation order
        // moves it.
        let mut b = sample(256, 42);
        let mut interactions = 0;
        for _ in 0..40 {
            interactions += leapfrog_step(&mut b, 0.01, 0.6);
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for x in &b {
            for v in x.pos.into_iter().chain(x.vel) {
                h = (h ^ v.to_bits()).wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!(
            (format!("{h:016x}"), interactions),
            ("523916e50df93da0".to_string(), 2_516_225)
        );
    }

    #[test]
    fn stepper_equals_fresh_steps_and_tracks_the_root() {
        // Carrying forces from one step to the next must change nothing:
        // k steps of one stepper equal k fresh single steps, and the
        // cached root summary is the one a fresh tree over the current
        // positions reports.
        let mut fresh = sample(200, 11);
        let mut sim = Leapfrog::new(fresh.clone(), 0.6);
        for step in 0..12 {
            assert_eq!(
                sim.root_summary(),
                Octree::build(sim.bodies()).root_summary(),
                "step {step}"
            );
            let a = sim.step(0.01);
            let b = leapfrog_step(&mut fresh, 0.01, 0.6);
            assert_eq!(a, b, "interactions, step {step}");
            for (x, y) in sim.bodies().iter().zip(&fresh) {
                for (u, v) in x.pos.iter().chain(&x.vel).zip(y.pos.iter().chain(&y.vel)) {
                    assert_eq!(u.to_bits(), v.to_bits(), "step {step}");
                }
            }
        }
        assert_eq!(
            sim.root_summary(),
            Octree::build(sim.bodies()).root_summary()
        );
    }

    #[test]
    fn interactions_scale_like_n_log_n() {
        let b1 = sample(100, 9);
        let b2 = sample(800, 9);
        let t1 = Octree::build(&b1);
        let t2 = Octree::build(&b2);
        let i1: u64 = b1.iter().map(|b| t1.accel(b, &b1, 0.6).1).sum();
        let i2: u64 = b2.iter().map(|b| t2.accel(b, &b2, 0.6).1).sum();
        let per1 = i1 as f64 / 100.0;
        let per2 = i2 as f64 / 800.0;
        // Per-body work grows slowly (log-ish), far below the 8× of O(N²).
        assert!(per2 / per1 < 4.0, "per-body interactions {per1} → {per2}");
    }

    #[test]
    fn coincident_bodies_do_not_blow_the_tree() {
        let mut b = sample(10, 10);
        b[1].pos = b[0].pos; // exact duplicate position
        let t = Octree::build(&b);
        assert!(t.node_count() < 10_000, "runaway subdivision");
        let (a, _) = t.accel(&b[0], &b, 0.6);
        assert!(a.iter().all(|v| v.is_finite()));
    }
}
