//! The oct-tree N-body code.
//!
//! Paper §3.3: *"N-body simulations have been used to study a wide variety
//! of dynamic astrophysical systems ... Our N-body code uses an oct-tree
//! algorithm with 8K particles per processor, which resulted in 303 million
//! total particle interactions [Olson & Dorband 1994]."*
//!
//! [`tree`] is a real Barnes–Hut implementation: a flat octree in walk
//! order, center-of-mass aggregation, θ-based multipole acceptance,
//! Plummer-sphere initial conditions, leapfrog (kick-drift-kick)
//! integration — with tests pinning force accuracy against direct
//! summation, momentum conservation, and tree partition invariants.
//!
//! [`Trajectory`] runs one rank's numerics ahead of the simulation; [`run`]
//! replays it on the node: modest text, a tree-churning footprint,
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

    /// One octree cell, laid out in the order the force walk visits it.
    #[derive(Debug, Clone, Copy)]
    struct Cell {
        /// Center of mass (a leaf's body position).
        com: [f64; 3],
        /// Aggregate mass.
        mass: f64,
        /// `(2·half)²`, the squared cell size the opening test compares.
        open2: f64,
        /// Index of the first cell after this one's subtree.
        skip: usize,
        /// A body (or coincident bodies merged into one) rather than a cell
        /// with children.
        leaf: bool,
    }

    /// A Barnes–Hut octree stored flat, in the order the force walk visits
    /// it: preorder, children in descending octant order, cells of zero
    /// mass left out. Each cell records where its subtree ends, so the walk
    /// is a loop over one array with no stack.
    #[derive(Debug)]
    pub struct Octree {
        cells: Vec<Cell>,
        root: (f64, [f64; 3]),
    }

    /// Depth past which a cell holding several bodies stops splitting and
    /// becomes one merged leaf (coincident positions would split forever).
    const MAX_DEPTH: usize = 64;

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
            let mut builder = Builder {
                bodies,
                cells: Vec::with_capacity(2 * bodies.len()),
                scratch: vec![0; bodies.len()],
            };
            let mut idx: Vec<usize> = (0..bodies.len()).collect();
            let root = builder.cell([0.0; 3], half, &mut idx, 0);
            Octree {
                cells: builder.cells,
                root,
            }
        }

        /// Number of cells in the flat layout (diagnostic; drives the
        /// footprint model).
        pub fn node_count(&self) -> usize {
            self.cells.len()
        }

        /// Total mass aggregated at the root.
        pub fn total_mass(&self) -> f64 {
            self.root.0
        }

        /// Root-cell summary (the quantity exchanged between nodes).
        pub fn root_summary(&self) -> (f64, [f64; 3]) {
            self.root
        }

        /// Barnes–Hut acceleration on `body` with opening angle `theta`.
        /// Returns the acceleration and the number of interactions used.
        pub fn accel(&self, body: &Body, theta: f64) -> ([f64; 3], u64) {
            let theta2 = theta * theta;
            let mut acc = [0.0; 3];
            let mut interactions = 0;
            let mut i = 0;
            while let Some(c) = self.cells.get(i) {
                let d = [
                    c.com[0] - body.pos[0],
                    c.com[1] - body.pos[1],
                    c.com[2] - body.pos[2],
                ];
                let dist2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                let accept = if c.leaf {
                    c.com != body.pos // not self (or a coincident twin)
                } else {
                    c.open2 < theta2 * dist2
                };
                if accept {
                    let r2 = dist2 + SOFTENING * SOFTENING;
                    let inv_r3 = 1.0 / (r2 * r2.sqrt());
                    for k in 0..3 {
                        acc[k] += c.mass * d[k] * inv_r3;
                    }
                    interactions += 1;
                }
                // An opened cell's first child follows it; anything else is
                // done with its whole subtree.
                i = if accept || c.leaf { c.skip } else { i + 1 };
            }
            (acc, interactions)
        }
    }

    /// Builds an [`Octree`] by recursively partitioning body indices.
    struct Builder<'a> {
        bodies: &'a [Body],
        cells: Vec<Cell>,
        /// Partition buffer, one slot per body.
        scratch: Vec<usize>,
    }

    impl Builder<'_> {
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

        /// Append the cell at `center`/`half` holding bodies `idx` (in
        /// ascending body order) and its subtree; return its mass and
        /// center of mass. A cell of zero mass exerts no force, so it is
        /// dropped again with its subtree.
        fn cell(
            &mut self,
            center: [f64; 3],
            half: f64,
            idx: &mut [usize],
            depth: usize,
        ) -> (f64, [f64; 3]) {
            let at = self.cells.len();
            let leaf = idx.len() == 1 || depth > MAX_DEPTH;
            let size = 2.0 * half;
            self.cells.push(Cell {
                com: [0.0; 3],
                mass: 0.0,
                open2: size * size,
                skip: 0,
                leaf,
            });
            let (mass, com) = if leaf {
                // A merged leaf sits at its first body and weighs them all.
                let first = &self.bodies[idx[0]];
                let mass = idx[1..]
                    .iter()
                    .fold(first.mass, |m, &i| m + self.bodies[i].mass);
                (mass, first.pos)
            } else {
                // Stable counting sort by octant, so every child keeps its
                // bodies in ascending order.
                let mut start = [0usize; 9];
                for &i in idx.iter() {
                    start[Self::octant(&center, &self.bodies[i].pos) + 1] += 1;
                }
                for oct in 0..8 {
                    start[oct + 1] += start[oct];
                }
                let mut next = start;
                for &i in idx.iter() {
                    let oct = Self::octant(&center, &self.bodies[i].pos);
                    self.scratch[next[oct]] = i;
                    next[oct] += 1;
                }
                idx.copy_from_slice(&self.scratch[..idx.len()]);
                // Lay the children out in the order the walk visits them,
                // then aggregate them in ascending octant order.
                let mut kids = [None; 8];
                for oct in (0..8).rev() {
                    let (s, e) = (start[oct], start[oct + 1]);
                    if s < e {
                        let c = Self::child_center(&center, half, oct);
                        kids[oct] = Some(self.cell(c, half / 2.0, &mut idx[s..e], depth + 1));
                    }
                }
                let mut m = 0.0;
                let mut c = [0.0; 3];
                for (cm, cc) in kids.into_iter().flatten() {
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
            };
            if mass == 0.0 {
                self.cells.truncate(at);
            } else {
                let skip = self.cells.len();
                let cell = &mut self.cells[at];
                (cell.mass, cell.com, cell.skip) = (mass, com, skip);
            }
            (mass, com)
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn flat_layout_is_a_preorder_with_one_leaf_per_body() {
            let b = plummer(300, &mut SimRng::new(12));
            let t = Octree::build(&b);
            let len = t.cells.len();
            for (i, c) in t.cells.iter().enumerate() {
                let skip = c.skip;
                assert!(i < skip && skip <= len, "cell {i} skips to {skip} of {len}");
                assert!(!c.leaf || skip == i + 1, "leaf {i} has a subtree");
                // Every cell inside (i, skip) ends its subtree by skip.
                for (j, d) in t.cells[i + 1..skip].iter().enumerate() {
                    assert!(d.skip <= skip, "cell {} escapes {i}", i + 1 + j);
                }
            }
            assert_eq!(t.cells.iter().filter(|c| c.leaf).count(), b.len());
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
                let (acc, n) = tree.accel(b, self.theta);
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

/// Executable path; the experiment installs it on every node.
pub const TEXT_PATH: &str = "/bin/nbody";
/// Executable size, bytes.
pub const TEXT_BYTES: u32 = 128 * 1024;
/// Output file path.
pub const OUT_PATH: &str = "/out/nbody.dat";
/// Paper-scale footprint in 4 KB pages: particle arrays + tree arena for
/// 8 K bodies (~3 MB ≈ 750 pages).
const FOOTPRINT_PAGES: u32 = 750;
/// Snapshot size, bytes. These ~2.5 KB dumps are what give N-body its
/// distinctive 2 KB request population (Figure 4: "more 2 KB requests ...
/// than occurred during PPM").
const SNAP_BYTES: usize = 2560;

/// Workload configuration: the sizes, numerics and cadences a run may
/// scale. The program text, output file, data footprint and snapshot size
/// are the paper's and stay fixed ([`TEXT_PATH`], [`OUT_PATH`],
/// `FOOTPRINT_PAGES`, `SNAP_BYTES`).
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
    /// Append a summary every this many steps.
    pub stats_every: usize,
    /// Dump a `SNAP_BYTES` particle snapshot every this many steps
    /// (0 = never).
    pub snap_every: usize,
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
            stats_every: 5,
            snap_every: 4,
            seed: 42,
            rank: 0,
            ntasks: 0,
            task_base: 0,
        }
    }
}

impl NbodyConfig {
    /// This template as rank `rank` of an `ntasks`-rank fleet whose rank 0
    /// is task `task_base`. Every rank samples its own Plummer sphere.
    pub fn for_rank(&self, rank: u32, ntasks: u32, task_base: u32) -> NbodyConfig {
        NbodyConfig {
            seed: self.seed.wrapping_add(rank as u64 * 0x9E37),
            rank,
            ntasks,
            task_base,
            ..self.clone()
        }
    }
}

/// Cell-summary exchange tag.
pub const TAG_CELLS: i32 = 301;

/// One rank's numerics, computed before the run and replayed by [`run`].
///
/// Computing them ahead is sound because they depend only on the rank's
/// `(seed, rank, particles, theta, dt, steps)`: a rank discards every cell
/// summary it receives and reads no file. If ranks ever fold each other's
/// summaries into their forces, the numerics must move back into [`run`].
#[derive(Debug, PartialEq)]
pub struct Trajectory {
    /// Per step, the 32-byte root summary sent before the step.
    summaries: Vec<u8>,
    /// Every append of the run, back to back: stats lines and snapshots in
    /// step order, then the final line.
    out: Vec<u8>,
    /// End offset in `out` of each append.
    ends: Vec<usize>,
    /// Interactions over the whole run.
    interactions: u64,
}

impl Trajectory {
    /// Sample this rank's Plummer sphere and step it through `cfg.steps`
    /// leapfrog steps, recording what [`run`] sends and writes.
    pub fn compute(cfg: &NbodyConfig) -> Trajectory {
        let mut rng = SimRng::new(cfg.seed ^ (cfg.rank as u64) << 32);
        let mut sim = tree::Leapfrog::new(tree::plummer(cfg.particles, &mut rng), cfg.theta);
        let mut traj = Trajectory {
            summaries: Vec::with_capacity(cfg.steps * 32),
            out: Vec::new(),
            ends: Vec::new(),
            interactions: 0,
        };
        for step in 0..cfg.steps {
            let (m, [x, y, z]) = sim.root_summary();
            traj.summaries
                .extend([m, x, y, z].into_iter().flat_map(f64::to_le_bytes));
            traj.interactions += sim.step(cfg.dt);

            if (step + 1) % cfg.stats_every == 0 {
                let p = tree::momentum(sim.bodies());
                let line = format!(
                    "step {:>4} interactions {:>12} |p| {:.3e}\n",
                    step + 1,
                    traj.interactions,
                    (p[0] * p[0] + p[1] * p[1] + p[2] * p[2]).sqrt()
                );
                traj.out.extend(line.bytes());
                traj.ends.push(traj.out.len());
            }
            if cfg.snap_every > 0 && (step + 1) % cfg.snap_every == 0 {
                // Particle-subset snapshot (restart seed): positions of the
                // first k bodies, padded to the dump size.
                let end = traj.out.len() + SNAP_BYTES;
                let pos = sim.bodies().iter().flat_map(|b| b.pos);
                traj.out
                    .extend(pos.flat_map(f64::to_le_bytes).take(SNAP_BYTES));
                traj.out.resize(end, 0);
                traj.ends.push(end);
            }
        }
        let line = format!(
            "final particles {} interactions {}\n",
            cfg.particles, traj.interactions
        );
        traj.out.extend(line.bytes());
        traj.ends.push(traj.out.len());
        traj
    }

    /// The run's appends, in order.
    fn appends(&self) -> impl Iterator<Item = &[u8]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|(s, &e)| &self.out[s..e])
    }
}

/// Run the N-body workload, replaying `traj` (computed from this `cfg`).
/// Returns the total interactions.
pub async fn run(cfg: &NbodyConfig, traj: &Trajectory, ctx: &mut AppCtx) -> u64 {
    assert_eq!(
        traj.summaries.len(),
        cfg.steps * 32,
        "trajectory computed for another step count"
    );
    load_program(ctx, TEXT_PATH).await;
    let region = PagedRegion::map(ctx, FOOTPRINT_PAGES).await;
    // Initialization sweeps the particle arrays once.
    region.touch_fraction(ctx, 0.0, 0.3).await;
    cost::flops(ctx, (cfg.particles * 50) as f64).await;

    let mut out = SimFile::open(ctx, OUT_PATH, true, Placement::User).await;
    let step_us = (cfg.duration_s * 1e6 / cfg.steps as f64) as u64;
    let mut appends = traj.appends();

    for step in 0..cfg.steps {
        // Exchange top-cell summaries with every other node (the "locally
        // essential tree" handshake, collapsed to the root level).
        if cfg.ntasks > 1 {
            let payload = &traj.summaries[step * 32..(step + 1) * 32];
            for r in 0..cfg.ntasks {
                if r != cfg.rank {
                    ctx.net(NetOp::Send {
                        to: cfg.task_base + r,
                        tag: TAG_CELLS,
                        data: payload.to_vec(),
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
        ctx.compute(step_us).await;

        if (step + 1) % cfg.stats_every == 0 {
            let line = appends.next().expect("trajectory stats line");
            out.append(ctx, line.to_vec()).await;
        }
        if cfg.snap_every > 0 && (step + 1) % cfg.snap_every == 0 {
            let snap = appends.next().expect("trajectory snapshot");
            out.append(ctx, snap.to_vec()).await;
        }
    }
    let last = appends.next().expect("trajectory final line");
    out.append(ctx, last.to_vec()).await;
    out.fsync(ctx).await;
    out.close(ctx).await;
    traj.interactions
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
            let (a, n) = t.accel(&bodies[i], theta);
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
        let i1: u64 = b1.iter().map(|b| t1.accel(b, 0.6).1).sum();
        let i2: u64 = b2.iter().map(|b| t2.accel(b, 0.6).1).sum();
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
        // The merged leaf weighs both bodies.
        assert!((t.total_mass() - 1.0).abs() < 1e-12, "{}", t.total_mass());
        for x in &b {
            let (a, _) = t.accel(x, 0.6);
            assert!(a.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn fleet_trajectories_are_the_same_bits_in_parallel() {
        use super::{NbodyConfig, Trajectory};
        use rayon::prelude::*;
        // The 16 paper-scale rank configs a fleet spawns.
        let ranks: Vec<NbodyConfig> = (0..16)
            .map(|n| NbodyConfig::default().for_rank(n, 16, 0))
            .collect();
        let serial: Vec<Trajectory> = ranks.iter().map(Trajectory::compute).collect();
        let parallel: Vec<Trajectory> = ranks
            .into_par_iter()
            .map(|cfg| Trajectory::compute(&cfg))
            .collect();
        assert!(serial == parallel, "parallel trajectories differ");
        assert!(serial[0] != serial[1], "ranks must sample their own bodies");
    }
}
