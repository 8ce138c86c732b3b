//! Device backends: one [`ActiveBackend`] surface over the digital
//! reference and the live crossbar substrates.
//!
//! [`healthmon_nn::InferenceBackend`] is the seam the detection stack
//! executes through; this module provides its device implementations.
//! Unlike [`crate::deploy`] — which reads effective weights back into a
//! digital network once — the crossbar arms keep the conductance state
//! *live*: faults injected mid-lifetime ([`ActiveBackend::drift`],
//! [`ActiveBackend::stick_cell`], ...) immediately change what the next
//! forward pass computes, including DAC/ADC quantization and multi-tile
//! partial-sum effects the read-back model cannot express. The digital
//! arm applies the same operations to the weights themselves, so a
//! lifetime runs one code path on every backend.
//!
//! On integer-path-capable tile configurations (the default; see
//! [`CrossbarConfig::integer_path_capable`]) the crossbar arms execute
//! on the quantized `i32` hot path: activations become DAC codes once per
//! layer call, conductances are cached as differential integer codes, and
//! the ADC applies at tile boundaries. Conductance mutators (`drift`,
//! `stick_cell`, `scrub`, ...) invalidate the cached codes exactly like
//! the `f32` differential cache, so liveness is preserved.

use crate::{
    deploy, BitSlicedMatrix, CellFault, Crossbar, CrossbarConfig, DeployReport, IrDropModel,
    LayerMapping, ParityCheck, ScrubOutcome, TiledMatrix,
};
use healthmon_faults::FaultModel;
use healthmon_nn::{
    InferenceBackend, MatmulEngine, MatmulOrientation, Network, NonFiniteActivation,
};
use healthmon_tensor::{SeededRng, Tensor};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::str::FromStr;

/// Which execution substrate runs the matmuls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Bit-identical digital reference (plain tensor GEMM).
    Digital,
    /// Differential-pair crossbars via [`TiledMatrix`].
    Analog,
    /// ISAAC-style bit-sliced crossbars via [`BitSlicedMatrix`].
    BitSliced,
}

impl BackendKind {
    /// Stable lower-case identifier (also the CLI flag value).
    pub fn label(&self) -> &'static str {
        match self {
            BackendKind::Digital => "digital",
            BackendKind::Analog => "analog",
            BackendKind::BitSliced => "bitsliced",
        }
    }
}

impl FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "digital" => Ok(BackendKind::Digital),
            "analog" => Ok(BackendKind::Analog),
            "bitsliced" => Ok(BackendKind::BitSliced),
            other => Err(format!(
                "unknown backend `{other}` (expected digital, analog or bitsliced)"
            )),
        }
    }
}

/// A complete, copyable description of an execution backend — enough to
/// re-instantiate it deterministically from a network and a seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendSpec {
    /// Substrate selector.
    pub kind: BackendKind,
    /// Crossbar tile parameters (ignored by the digital backend).
    pub crossbar: CrossbarConfig,
    /// Total magnitude bits per weight for the bit-sliced backend
    /// (sliced into `crossbar.cell_bits`-wide digits; ignored otherwise).
    pub weight_bits: u32,
    /// Wire resistance of the first-order IR-drop model applied once after
    /// programming; 0 disables IR drop.
    pub ir_drop: f32,
}

impl BackendSpec {
    /// The digital reference backend.
    pub fn digital() -> Self {
        BackendSpec {
            kind: BackendKind::Digital,
            crossbar: CrossbarConfig::default(),
            weight_bits: 8,
            ir_drop: 0.0,
        }
    }

    /// An analog crossbar backend with the given tile configuration.
    pub fn analog(crossbar: CrossbarConfig) -> Self {
        BackendSpec { kind: BackendKind::Analog, crossbar, weight_bits: 8, ir_drop: 0.0 }
    }

    /// A bit-sliced backend storing `weight_bits` magnitude bits per
    /// weight in `crossbar.cell_bits`-wide digit slices.
    pub fn bitsliced(crossbar: CrossbarConfig, weight_bits: u32) -> Self {
        BackendSpec { kind: BackendKind::BitSliced, crossbar, weight_bits, ir_drop: 0.0 }
    }

    /// Validates the specification.
    ///
    /// # Panics
    ///
    /// Panics if the crossbar config is invalid, the IR-drop resistance is
    /// negative or non-finite, or (bit-sliced only) `weight_bits` is not a
    /// positive multiple of `crossbar.cell_bits` within 16 bits.
    pub fn validate(&self) {
        if self.kind == BackendKind::Digital {
            return;
        }
        self.crossbar.validate();
        assert!(
            self.ir_drop >= 0.0 && self.ir_drop.is_finite(),
            "IR-drop resistance {} must be finite and non-negative",
            self.ir_drop
        );
        if self.kind == BackendKind::BitSliced {
            let cell = self.crossbar.cell_bits;
            assert!(
                cell >= 1
                    && self.weight_bits >= cell
                    && self.weight_bits.is_multiple_of(cell)
                    && self.weight_bits <= 16,
                "bit-sliced backend needs weight bits ({}) to be a positive multiple of cell bits ({cell}) within 16",
                self.weight_bits
            );
        }
    }

    /// Instantiates the backend over `net`.
    ///
    /// The digital backend *borrows* the network (zero-copy, bit-identical
    /// to calling [`Network::infer`] directly); crossbar backends program
    /// a fresh conductance image from `rng`.
    pub fn instantiate<'a>(&self, net: &'a Network, rng: &mut SeededRng) -> ActiveBackend<'a> {
        match self.kind {
            BackendKind::Digital => {
                ActiveBackend::Digital { net: Cow::Borrowed(net), parity: Vec::new() }
            }
            BackendKind::Analog => ActiveBackend::Analog(MappedNetwork::program(net, self, rng)),
            BackendKind::BitSliced => {
                ActiveBackend::BitSliced(MappedNetwork::program(net, self, rng))
            }
        }
    }
}

impl Default for BackendSpec {
    fn default() -> Self {
        Self::digital()
    }
}

/// The crossbar state of one conductance-mapped parameter.
#[derive(Debug, Clone)]
enum MappedMatrix {
    Tiled(TiledMatrix),
    Sliced(BitSlicedMatrix),
}

impl MappedMatrix {
    /// Programs `oriented` per `spec`, applying the spec's IR-drop model
    /// to every tile.
    fn program(oriented: &Tensor, spec: &BackendSpec, rng: &mut SeededRng) -> Self {
        let mut matrix = match spec.kind {
            BackendKind::Digital => unreachable!("digital backend maps no parameters"),
            BackendKind::Analog => {
                MappedMatrix::Tiled(TiledMatrix::program(oriented, &spec.crossbar, rng))
            }
            BackendKind::BitSliced => MappedMatrix::Sliced(BitSlicedMatrix::program(
                oriented,
                spec.weight_bits,
                spec.crossbar.cell_bits,
                &spec.crossbar,
                rng,
            )),
        };
        if spec.ir_drop > 0.0 {
            let model = IrDropModel::new(spec.ir_drop);
            matrix.tiles_mut().for_each(|tile| tile.apply_ir_drop(&model));
        }
        matrix
    }

    fn matmul(&self, input: &Tensor) -> Tensor {
        match self {
            MappedMatrix::Tiled(t) => t.matmul(input),
            MappedMatrix::Sliced(s) => s.matmul(input),
        }
    }

    fn effective_weights(&self) -> Tensor {
        match self {
            MappedMatrix::Tiled(t) => t.effective_weights(),
            MappedMatrix::Sliced(s) => s.effective_weights(),
        }
    }

    fn stick_cell(&mut self, row: usize, col: usize, weight: f32) {
        match self {
            MappedMatrix::Tiled(t) => t.stick_cell(row, col, weight),
            MappedMatrix::Sliced(s) => s.stick_cell(row, col, weight),
        }
    }

    /// The tiled arrays holding the matrix, least-significant slice first;
    /// an analog matrix is a single slice.
    fn slices(&self) -> &[TiledMatrix] {
        match self {
            MappedMatrix::Tiled(t) => std::slice::from_ref(t),
            MappedMatrix::Sliced(s) => s.slices(),
        }
    }

    fn slices_mut(&mut self) -> &mut [TiledMatrix] {
        match self {
            MappedMatrix::Tiled(t) => std::slice::from_mut(t),
            MappedMatrix::Sliced(s) => s.slices_mut(),
        }
    }

    /// Weight-domain radix scale of each slice (1.0 for an analog matrix).
    fn slice_scales(&self) -> &[f32] {
        match self {
            MappedMatrix::Tiled(_) => &[1.0],
            MappedMatrix::Sliced(s) => s.slice_scales(),
        }
    }

    /// Every tile of the matrix: slices LSB first, each in row-major grid
    /// order.
    fn tiles_mut(&mut self) -> impl Iterator<Item = &mut Crossbar> {
        self.slices_mut().iter_mut().flat_map(TiledMatrix::tiles_mut)
    }

    fn tile_count(&self) -> usize {
        self.slices().iter().map(TiledMatrix::tile_count).sum()
    }

    /// Worst-case weight-domain output magnitude the (recombined) ADC
    /// chain is sized for. For multi-row-block tilings this sums the
    /// first tile's full scale over the row blocks — an upper bound on any
    /// single output column.
    fn adc_full_scale(&self) -> f32 {
        self.slices()
            .iter()
            .zip(self.slice_scales())
            .map(|(t, &sc)| t.tiles()[0].adc_full_scale() * t.tile_grid().0 as f32 * sc)
            .sum()
    }

    fn utilization(&self, config: &CrossbarConfig) -> f32 {
        let slices = self.slices();
        let (m, n) = slices[0].shape();
        (m * n * slices.len()) as f32 / (self.tile_count() * config.rows * config.cols) as f32
    }
}

/// One conductance-mapped layer: its crossbar state plus the orientation
/// needed to translate between the digital weight layout and the
/// programmed matrix (conv weights `[F, C·K·K]` are programmed transposed
/// so the crossbar contraction runs over the `C·K·K` word lines).
#[derive(Debug, Clone)]
struct MappedLayer {
    matrix: MappedMatrix,
    orientation: MatmulOrientation,
}

impl MappedLayer {
    /// Maps digital weight coordinates to programmed-matrix coordinates.
    fn physical(&self, row: usize, col: usize) -> (usize, usize) {
        match self.orientation {
            MatmulOrientation::XW => (row, col),
            MatmulOrientation::WX => (col, row),
        }
    }

    /// Orients a digital weight tensor into the programmed layout.
    fn orient(&self, digital: &Tensor) -> Tensor {
        match self.orientation {
            MatmulOrientation::XW => digital.clone(),
            MatmulOrientation::WX => digital.transpose(),
        }
    }

    /// Reads the effective weights back in the digital layout.
    fn readback_digital(&self) -> Tensor {
        let eff = self.matrix.effective_weights();
        match self.orientation {
            MatmulOrientation::XW => eff,
            MatmulOrientation::WX => eff.transpose(),
        }
    }
}

/// Live crossbar state of a network: the digital network (for structure,
/// biases, and non-matmul layers) plus a [`TiledMatrix`] (analog) or a
/// [`BitSlicedMatrix`] (bit-sliced) for every conductance-mapped weight,
/// routed into inference through [`MatmulEngine`]. The crossbar arms of
/// [`ActiveBackend`] hold one.
#[derive(Debug, Clone)]
pub struct MappedNetwork<'a> {
    /// Borrowed at program time (campaign workloads program thousands of
    /// short-lived backends and must not deep-copy every net); cloned
    /// lazily only if a layer rewrite has to update the digital weights.
    net: Cow<'a, Network>,
    spec: BackendSpec,
    layers: BTreeMap<String, MappedLayer>,
    /// Whether online parity tolerance is enabled (sticky: layer
    /// rewrites re-enable it on the fresh crossbar state).
    parity: bool,
}

impl<'a> MappedNetwork<'a> {
    /// Programs every conductance-mapped weight of `net` onto crossbar
    /// state per `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `spec` is invalid or digital.
    pub fn program(net: &'a Network, spec: &BackendSpec, rng: &mut SeededRng) -> Self {
        spec.validate();
        assert!(spec.kind != BackendKind::Digital, "digital backend needs no mapping");
        let mut orientations = BTreeMap::new();
        for (i, layer) in net.layers().iter().enumerate() {
            // Composite layers (residual blocks, attention) expose several
            // mappable matmuls under compound param names; one-weight
            // layers report their single `"weight"` entry via the default.
            for (name, o) in layer.matmuls() {
                orientations.insert(format!("layer{i}.{name}"), o);
            }
        }
        let mut layers = BTreeMap::new();
        net.for_each_param(|key, tensor| {
            let Some(&orientation) = orientations.get(key) else { return };
            // XW weights are already in the programmed layout — map them
            // in place; only WX needs a transposed copy.
            let matrix = match orientation {
                MatmulOrientation::XW => MappedMatrix::program(tensor, spec, rng),
                MatmulOrientation::WX => MappedMatrix::program(&tensor.transpose(), spec, rng),
            };
            layers.insert(key.to_owned(), MappedLayer { matrix, orientation });
        });
        MappedNetwork { net: Cow::Borrowed(net), spec: *spec, layers, parity: false }
    }

    /// The digital network the backend was programmed from (structure,
    /// biases, and the last-written weights).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Every crossbar tile of the network in the order the RNG stream
    /// visits them: layer key, then slice (LSB first), then row-major
    /// grid position.
    fn tiles_mut(&mut self) -> impl Iterator<Item = &mut Crossbar> {
        self.layers.values_mut().flat_map(|layer| layer.matrix.tiles_mut())
    }

    /// Freezes a fraction of cells across every mapped layer.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `[0, 1]`.
    pub fn inject_stuck_cells(&mut self, fault: CellFault, fraction: f64, rng: &mut SeededRng) {
        self.tiles_mut().for_each(|tile| tile.inject_stuck_cells(fault, fraction, rng));
    }

    /// Applies lognormal conductance disturbance to every mapped layer.
    pub fn disturb(&mut self, sigma: f32, rng: &mut SeededRng) {
        self.tiles_mut().for_each(|tile| tile.disturb(sigma, rng));
    }

    /// Flips cells with the given probability across every mapped layer
    /// (one continuous RNG stream) — sparse transient soft errors, the
    /// device-level image of the digital `RandomSoftError` fault. Returns
    /// the flipped cell count.
    ///
    /// # Panics
    ///
    /// Panics if `probability` is not in `[0, 1]`.
    pub fn flip_cells(&mut self, probability: f64, rng: &mut SeededRng) -> usize {
        self.tiles_mut().map(|tile| tile.flip_cells(probability, rng)).sum()
    }

    /// Enables online soft-error tolerance: every tile captures XOR parity
    /// checksums over its conductance planes, and layer rewrites keep
    /// parity enabled on the fresh state.
    pub fn enable_parity(&mut self) {
        self.parity = true;
        self.tiles_mut().for_each(Crossbar::enable_parity);
    }

    /// Re-baselines every tile's parity checksums to the current
    /// conductances (acknowledging writes or expected aging).
    pub fn refresh_parity(&mut self) {
        self.tiles_mut().for_each(Crossbar::refresh_parity);
    }

    /// Scrubs every tile in-situ against its parity checksums, restoring
    /// correctable transient flips bitwise. Returns the merged outcome
    /// (empty when parity was never enabled).
    pub fn scrub_parity(&mut self) -> ScrubOutcome {
        let mut outcome = ScrubOutcome::default();
        self.tiles_mut().for_each(|tile| outcome.merge(tile.scrub_parity()));
        outcome
    }

    /// Applies conductance drift to every mapped layer.
    pub fn drift(&mut self, nu: f32, time: f32, rng: &mut SeededRng) {
        self.tiles_mut().for_each(|tile| tile.drift(nu, time, rng));
    }

    /// Freezes one weight (digital coordinates within the named
    /// parameter) at the given value.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not conductance-mapped or the coordinates are
    /// out of bounds.
    pub fn stick_cell(&mut self, key: &str, row: usize, col: usize, weight: f32) {
        let layer = self.mapped_mut(key);
        let (pr, pc) = layer.physical(row, col);
        layer.matrix.stick_cell(pr, pc, weight);
    }

    /// Reprograms one mapped parameter with new digital weights
    /// (repair/reprogramming path), IR drop included.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not conductance-mapped.
    pub fn write_layer(&mut self, key: &str, weights: &Tensor, rng: &mut SeededRng) {
        let (spec, parity) = (self.spec, self.parity);
        let layer = self.mapped_mut(key);
        let oriented = layer.orient(weights);
        layer.matrix = MappedMatrix::program(&oriented, &spec, rng);
        if parity {
            layer.matrix.tiles_mut().for_each(Crossbar::enable_parity);
        }
        *self.net.to_mut().param_mut(key).expect("mapped keys are network parameters") =
            weights.clone();
    }

    fn mapped_mut(&mut self, key: &str) -> &mut MappedLayer {
        self.layers
            .get_mut(key)
            .unwrap_or_else(|| panic!("`{key}` is not a conductance-mapped parameter"))
    }

    /// Deep-copies a borrowed source network into the backend, severing
    /// the lifetime tie (no-op if a rewrite already forced ownership).
    pub fn into_owned(self) -> MappedNetwork<'static> {
        MappedNetwork {
            net: Cow::Owned(self.net.into_owned()),
            spec: self.spec,
            layers: self.layers,
            parity: self.parity,
        }
    }

    /// Profiles the backend against its digital reference on a probe
    /// batch: per-layer tile counts, area utilization, ADC range usage,
    /// mapping error, and digital-vs-analog logit divergence.
    pub fn deploy_report(&self, probe: &Tensor) -> DeployReport {
        let digital = self.net.infer(probe);
        let recorder = RecordingEngine { inner: self, peaks: RefCell::new(BTreeMap::new()) };
        let analog = self.net.infer_with(probe, &recorder);
        let batch = probe.shape()[0].max(1) as f32;
        let divergence = digital.l1_distance(&analog) / batch;
        let peaks = recorder.peaks.into_inner();
        let mut mappings = Vec::new();
        self.net.for_each_param(|key, tensor| {
            let Some(layer) = self.layers.get(key) else { return };
            let realized = layer.readback_digital();
            let full_scale = layer.matrix.adc_full_scale();
            mappings.push(LayerMapping {
                key: key.to_owned(),
                shape: (tensor.shape()[0], tensor.shape()[1]),
                tiles: layer.matrix.tile_count(),
                mapping_error_l1: tensor.l1_distance(&realized),
                utilization: layer.matrix.utilization(&self.spec.crossbar),
                adc_range_used: peaks
                    .get(key)
                    .map(|&p| if full_scale > 0.0 { p / full_scale } else { 0.0 })
                    .unwrap_or(0.0),
            });
        });
        DeployReport { mappings, logit_divergence: Some(divergence) }
    }
}

impl MatmulEngine for MappedNetwork<'_> {
    fn matmul_xw(&self, key: &str, x: &Tensor, w: &Tensor) -> Tensor {
        match self.layers.get(key) {
            Some(layer) => layer.matrix.matmul(x),
            None => x.matmul(w),
        }
    }

    fn matmul_wx(&self, key: &str, w: &Tensor, x: &Tensor) -> Tensor {
        match self.layers.get(key) {
            // W·X = (Xᵀ·Wᵀ)ᵀ with Wᵀ programmed on the tiles.
            Some(layer) => layer.matrix.matmul(&x.transpose()).transpose(),
            None => w.matmul(x),
        }
    }
}

impl InferenceBackend for MappedNetwork<'_> {
    fn infer(&self, input: &Tensor) -> Tensor {
        self.net.infer_with(input, self)
    }

    fn infer_checked(&self, input: &Tensor) -> Result<Tensor, NonFiniteActivation> {
        self.net.infer_checked_with(input, self)
    }

    fn backend_name(&self) -> &'static str {
        self.spec.kind.label()
    }

    fn readback(&self) -> Network {
        let mut net = self.net.as_ref().clone();
        net.for_each_param_mut(|key, tensor| {
            if let Some(layer) = self.layers.get(key) {
                *tensor = layer.readback_digital();
            }
        });
        net
    }
}

/// A [`MatmulEngine`] that delegates to crossbar state while recording the
/// peak output magnitude per mapped layer — used by
/// [`MappedNetwork::deploy_report`] to estimate ADC range utilization.
struct RecordingEngine<'a> {
    inner: &'a MappedNetwork<'a>,
    peaks: RefCell<BTreeMap<String, f32>>,
}

impl RecordingEngine<'_> {
    fn record(&self, key: &str, out: &Tensor) {
        if self.inner.layers.contains_key(key) {
            let peak = out.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let mut peaks = self.peaks.borrow_mut();
            let entry = peaks.entry(key.to_owned()).or_insert(0.0);
            *entry = entry.max(peak);
        }
    }
}

impl MatmulEngine for RecordingEngine<'_> {
    fn matmul_xw(&self, key: &str, x: &Tensor, w: &Tensor) -> Tensor {
        let out = self.inner.matmul_xw(key, x, w);
        self.record(key, &out);
        out
    }

    fn matmul_wx(&self, key: &str, w: &Tensor, x: &Tensor) -> Tensor {
        let out = self.inner.matmul_wx(key, w, x);
        self.record(key, &out);
        out
    }
}

/// The device surface: one execution substrate — the digital reference or
/// live crossbar state — behind every operation a deployed device
/// undergoes (inference, aging, stuck cells, layer writes, parity scrubs,
/// repairs). [`BackendSpec::instantiate`] builds one; a deployed device
/// owns an `ActiveBackend<'static>` (see [`ActiveBackend::into_owned`]).
#[derive(Debug, Clone)]
pub enum ActiveBackend<'a> {
    /// Weight-space digital device.
    Digital {
        /// The device network: borrowed by campaigns (zero-copy), owned
        /// by a deployed device.
        net: Cow<'a, Network>,
        /// Parity planes over each weight tensor (empty until
        /// [`ActiveBackend::enable_parity`]).
        parity: Vec<(String, ParityCheck)>,
    },
    /// Differential-pair crossbars ([`TiledMatrix`] per mapped weight).
    Analog(MappedNetwork<'a>),
    /// Bit-sliced crossbars ([`BitSlicedMatrix`] per mapped weight).
    BitSliced(MappedNetwork<'a>),
}

impl ActiveBackend<'_> {
    /// Severs any borrow of the source network by deep-copying it into
    /// the backend — for callers that keep the backend beyond the
    /// network's lifetime (a deployed device).
    pub fn into_owned(self) -> ActiveBackend<'static> {
        match self {
            ActiveBackend::Digital { net, parity } => {
                ActiveBackend::Digital { net: Cow::Owned(net.into_owned()), parity }
            }
            ActiveBackend::Analog(m) => ActiveBackend::Analog(m.into_owned()),
            ActiveBackend::BitSliced(m) => ActiveBackend::BitSliced(m.into_owned()),
        }
    }

    /// The device network. For crossbar arms this is the programmed
    /// digital image (structure, biases, last-written weights);
    /// conductance-level aging shows up only in
    /// [`InferenceBackend::readback`].
    pub fn network(&self) -> &Network {
        match self {
            ActiveBackend::Digital { net, .. } => net,
            ActiveBackend::Analog(m) | ActiveBackend::BitSliced(m) => m.network(),
        }
    }

    /// The digital parity planes, in parameter order (empty on crossbar
    /// arms, which keep parity on their tiles).
    pub fn parity_planes(&self) -> &[(String, ParityCheck)] {
        match self {
            ActiveBackend::Digital { parity, .. } => parity,
            ActiveBackend::Analog(_) | ActiveBackend::BitSliced(_) => &[],
        }
    }

    /// One epoch of resistance drift: `FaultModel::Drift` on the digital
    /// weights, conductance drift on the crossbars.
    pub fn drift(&mut self, nu: f32, time: f32, rng: &mut SeededRng) {
        match self {
            ActiveBackend::Digital { net, .. } => {
                FaultModel::Drift { nu, time }.apply(net.to_mut(), rng);
            }
            ActiveBackend::Analog(m) | ActiveBackend::BitSliced(m) => m.drift(nu, time, rng),
        }
    }

    /// Dense soft errors: `FaultModel::RandomSoftError` on the digital
    /// weights; on the crossbars, read-disturb noise — lognormal
    /// conductance jitter driven by the same probability knob.
    pub fn soft_errors(&mut self, probability: f64, rng: &mut SeededRng) {
        match self {
            ActiveBackend::Digital { net, .. } => {
                FaultModel::RandomSoftError { probability }.apply(net.to_mut(), rng);
            }
            ActiveBackend::Analog(m) | ActiveBackend::BitSliced(m) => {
                m.disturb(probability as f32, rng);
            }
        }
    }

    /// Sparse transient soft errors, the kind a parity scrub can isolate:
    /// the digital arm keeps the weight-space `RandomSoftError` stream;
    /// the crossbars flip individual cells instead of applying dense
    /// read-disturb jitter.
    pub fn transient_flips(&mut self, probability: f64, rng: &mut SeededRng) {
        match self {
            ActiveBackend::Digital { net, .. } => {
                FaultModel::RandomSoftError { probability }.apply(net.to_mut(), rng);
            }
            ActiveBackend::Analog(m) | ActiveBackend::BitSliced(m) => {
                m.flip_cells(probability, rng);
            }
        }
    }

    /// Freezes one weight (digital coordinates within the named
    /// parameter) at the given value.
    ///
    /// # Panics
    ///
    /// Panics if `key` names no (conductance-mapped) weight or the
    /// coordinates are out of bounds.
    pub fn stick_cell(&mut self, key: &str, row: usize, col: usize, weight: f32) {
        match self {
            ActiveBackend::Digital { net, .. } => {
                *digital_param(net, key).at_mut(&[row, col]) = weight;
            }
            ActiveBackend::Analog(m) | ActiveBackend::BitSliced(m) => {
                m.stick_cell(key, row, col, weight);
            }
        }
    }

    /// Writes new weights into one parameter: assigned directly on the
    /// digital arm, reprogrammed through the crossbar write path (drawing
    /// write noise from `rng`) on the crossbars.
    ///
    /// # Panics
    ///
    /// Panics if `key` names no (conductance-mapped) weight.
    pub fn write_layer(&mut self, key: &str, weights: &Tensor, rng: &mut SeededRng) {
        match self {
            ActiveBackend::Digital { net, .. } => *digital_param(net, key) = weights.clone(),
            ActiveBackend::Analog(m) | ActiveBackend::BitSliced(m) => {
                m.write_layer(key, weights, rng);
            }
        }
    }

    /// Reprograms the device from `golden`. `remap(key, weights)` turns
    /// the weights about to be written into the tensor actually written
    /// (`None` leaves that parameter alone).
    ///
    /// The digital arm redeploys the whole golden network onto `crossbar`
    /// (biases included, with fresh programming noise) and remaps the
    /// *programmed* weights; the crossbars remap the golden weights and
    /// write them through the crossbar write path.
    pub fn reprogram(
        &mut self,
        golden: &Network,
        crossbar: &CrossbarConfig,
        rng: &mut SeededRng,
        mut remap: impl FnMut(&str, &Tensor) -> Option<Tensor>,
    ) {
        match self {
            ActiveBackend::Digital { net, .. } => {
                let (mut fresh, _) = deploy(golden, crossbar, rng);
                fresh.for_each_param_mut(|key, tensor| {
                    if let Some(weights) = remap(key, tensor) {
                        *tensor = weights;
                    }
                });
                *net = Cow::Owned(fresh);
            }
            ActiveBackend::Analog(m) | ActiveBackend::BitSliced(m) => {
                golden.for_each_param(|key, tensor| {
                    if let Some(weights) = remap(key, tensor) {
                        m.write_layer(key, &weights, rng);
                    }
                });
            }
        }
    }

    /// Fine-tunes the device with `train`. The digital arm trains the
    /// device network in place; the crossbars train a read-back of their
    /// effective weights and write the conductance-mapped layers back
    /// (bias updates stay cloud-side: only mapped parameters have a
    /// crossbar write path).
    pub fn retrain(&mut self, rng: &mut SeededRng, train: impl FnOnce(&mut Network)) {
        match self {
            ActiveBackend::Digital { net, .. } => train(net.to_mut()),
            ActiveBackend::Analog(m) | ActiveBackend::BitSliced(m) => {
                let mut snapshot = m.readback();
                train(&mut snapshot);
                snapshot.for_each_param(|key, tensor| {
                    if m.layers.contains_key(key) {
                        m.write_layer(key, tensor, rng);
                    }
                });
            }
        }
    }

    /// Programs parity checksums over the current device state: one
    /// plane per weight tensor on the digital arm, per-tile spare columns
    /// on the crossbars (kept enabled across layer rewrites).
    pub fn enable_parity(&mut self) {
        match self {
            ActiveBackend::Digital { net, parity } => {
                parity.clear();
                net.for_each_param(|key, tensor| {
                    if key.ends_with("weight") {
                        let rows = tensor.shape()[0];
                        let cols = tensor.len() / rows;
                        let check = ParityCheck::capture(rows, cols, tensor.as_slice());
                        parity.push((key.to_owned(), check));
                    }
                });
            }
            ActiveBackend::Analog(m) | ActiveBackend::BitSliced(m) => m.enable_parity(),
        }
    }

    /// Re-baselines every parity checksum to the current device state.
    pub fn refresh_parity(&mut self) {
        match self {
            ActiveBackend::Digital { net, parity } => {
                for (key, check) in parity {
                    let tensor = net.param(key).expect("parity planes cover device weights");
                    check.refresh(tensor.as_slice());
                }
            }
            ActiveBackend::Analog(m) | ActiveBackend::BitSliced(m) => m.refresh_parity(),
        }
    }

    /// One in-situ parity scrub over the whole device, restoring
    /// correctable transient flips bitwise. Empty when parity was never
    /// enabled.
    pub fn scrub_parity(&mut self) -> ScrubOutcome {
        match self {
            ActiveBackend::Digital { net, parity } => {
                let mut outcome = ScrubOutcome::default();
                for (key, check) in parity.iter() {
                    outcome.merge(check.scrub(digital_param(net, key).as_mut_slice()));
                }
                outcome
            }
            ActiveBackend::Analog(m) | ActiveBackend::BitSliced(m) => m.scrub_parity(),
        }
    }

    /// Profiles the crossbar mapping against the digital reference on a
    /// probe batch (see [`MappedNetwork::deploy_report`]). A digital
    /// device maps nothing: its report is empty and unprofiled.
    pub fn deploy_report(&self, probe: &Tensor) -> DeployReport {
        match self {
            ActiveBackend::Digital { .. } => {
                DeployReport { mappings: Vec::new(), logit_divergence: None }
            }
            ActiveBackend::Analog(m) | ActiveBackend::BitSliced(m) => m.deploy_report(probe),
        }
    }
}

/// The digital device parameter `key`, cloned out of a borrowed network
/// on first write.
fn digital_param<'n>(net: &'n mut Cow<'_, Network>, key: &str) -> &'n mut Tensor {
    net.to_mut().param_mut(key).unwrap_or_else(|| panic!("`{key}` is not a device parameter"))
}

impl InferenceBackend for ActiveBackend<'_> {
    fn infer(&self, input: &Tensor) -> Tensor {
        match self {
            ActiveBackend::Digital { net, .. } => net.infer(input),
            ActiveBackend::Analog(m) | ActiveBackend::BitSliced(m) => m.infer(input),
        }
    }

    fn infer_checked(&self, input: &Tensor) -> Result<Tensor, NonFiniteActivation> {
        match self {
            ActiveBackend::Digital { net, .. } => net.infer_checked(input),
            ActiveBackend::Analog(m) | ActiveBackend::BitSliced(m) => m.infer_checked(input),
        }
    }

    fn backend_name(&self) -> &'static str {
        match self {
            ActiveBackend::Digital { .. } => BackendKind::Digital.label(),
            ActiveBackend::Analog(m) | ActiveBackend::BitSliced(m) => m.backend_name(),
        }
    }

    fn readback(&self) -> Network {
        match self {
            ActiveBackend::Digital { net, .. } => net.as_ref().clone(),
            ActiveBackend::Analog(m) | ActiveBackend::BitSliced(m) => m.readback(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use healthmon_nn::layers::{Conv2d, Dense, Flatten, MaxPool2d, Relu};
    use healthmon_nn::models::tiny_mlp;

    /// A small conv net exercising the transposed (WX) programming path.
    fn tiny_cnn(rng: &mut SeededRng) -> Network {
        let mut net = Network::new(vec![1, 8, 8]);
        net.push(Conv2d::new(1, 4, 3, 1, 1, rng));
        net.push(Relu::new());
        net.push(MaxPool2d::new(2, 2));
        net.push(Flatten::new());
        net.push(Dense::new(4 * 4 * 4, 5, rng));
        net
    }

    fn exact_spec() -> BackendSpec {
        BackendSpec::analog(CrossbarConfig { rows: 4096, cols: 4096, ..CrossbarConfig::exact() })
    }

    #[test]
    fn kind_parses_and_labels() {
        for kind in [BackendKind::Digital, BackendKind::Analog, BackendKind::BitSliced] {
            assert_eq!(kind.label().parse::<BackendKind>().unwrap(), kind);
        }
        assert!("quantum".parse::<BackendKind>().is_err());
    }

    #[test]
    fn exact_analog_is_bitwise_digital_on_mlp() {
        let mut rng = SeededRng::new(1);
        let net = tiny_mlp(12, 16, 5, &mut rng);
        let backend = MappedNetwork::program(&net, &exact_spec(), &mut rng);
        let x = Tensor::randn(&[4, 12], &mut rng);
        assert_eq!(backend.infer(&x), net.infer(&x));
        assert_eq!(backend.infer_checked(&x).unwrap(), net.infer(&x));
    }

    #[test]
    fn exact_analog_is_bitwise_digital_on_cnn() {
        let mut rng = SeededRng::new(2);
        let net = tiny_cnn(&mut rng);
        let backend = MappedNetwork::program(&net, &exact_spec(), &mut rng);
        let x = Tensor::randn(&[2, 1, 8, 8], &mut rng);
        assert_eq!(backend.infer(&x), net.infer(&x), "conv path must be bitwise digital");
    }

    #[test]
    fn exact_readback_matches_weights() {
        let mut rng = SeededRng::new(3);
        let net = tiny_mlp(6, 8, 3, &mut rng);
        let backend = MappedNetwork::program(&net, &exact_spec(), &mut rng);
        let back = InferenceBackend::readback(&backend);
        let mut pairs = Vec::new();
        net.for_each_param(|k, t| pairs.push((k.to_owned(), t.clone())));
        back.for_each_param(|k, t| {
            let (_, orig) = pairs.iter().find(|(pk, _)| pk == k).unwrap();
            if k.ends_with("weight") {
                for (a, b) in orig.as_slice().iter().zip(t.as_slice()) {
                    assert!((a - b).abs() < 1e-7, "{k}: {a} vs {b}");
                }
            } else {
                assert_eq!(orig, t, "{k} (not mapped) must be untouched");
            }
        });
    }

    #[test]
    fn bitsliced_backend_approximates_digital() {
        let mut rng = SeededRng::new(4);
        let net = tiny_mlp(10, 14, 4, &mut rng);
        let spec = BackendSpec::bitsliced(
            CrossbarConfig { cell_bits: 4, dac_bits: 0, adc_bits: 0, ..CrossbarConfig::default() },
            16,
        );
        let backend = MappedNetwork::program(&net, &spec, &mut rng);
        assert_eq!(backend.backend_name(), "bitsliced");
        let x = Tensor::randn(&[3, 10], &mut rng).map(|v| v.clamp(-1.0, 1.0));
        let analog = backend.infer(&x);
        let digital = net.infer(&x);
        let rel = analog.l1_distance(&digital) / digital.norm_l1().max(1e-6);
        assert!(rel < 0.05, "16-bit sliced weights diverge too much: {rel}");
    }

    #[test]
    fn live_faults_change_inference() {
        let mut rng = SeededRng::new(5);
        let net = tiny_mlp(8, 10, 4, &mut rng);
        let mut backend = MappedNetwork::program(&net, &exact_spec(), &mut rng);
        let x = Tensor::randn(&[2, 8], &mut rng);
        let clean = backend.infer(&x);
        backend.inject_stuck_cells(CellFault::StuckHigh, 0.3, &mut rng);
        let faulty = backend.infer(&x);
        assert!(clean.l1_distance(&faulty) > 1e-3, "stuck cells must perturb live inference");
        // And the read-back reflects the faults.
        let back = InferenceBackend::readback(&backend);
        assert!(net.infer(&x).l1_distance(&back.infer(&x)) > 1e-3);
    }

    #[test]
    fn stick_cell_respects_orientation() {
        let mut rng = SeededRng::new(6);
        let net = tiny_cnn(&mut rng);
        let mut backend = MappedNetwork::program(&net, &exact_spec(), &mut rng);
        // layer0 is a conv: weight [F, C·K·K], programmed transposed.
        backend.stick_cell("layer0.weight", 1, 3, 0.5);
        let back = InferenceBackend::readback(&backend);
        back.for_each_param(|k, t| {
            if k == "layer0.weight" {
                assert!((t.at(&[1, 3]) - 0.5).abs() < 1e-6, "got {}", t.at(&[1, 3]));
            }
        });
    }

    #[test]
    fn write_layer_reprograms() {
        let mut rng = SeededRng::new(7);
        let net = tiny_mlp(6, 8, 3, &mut rng);
        let mut backend = MappedNetwork::program(&net, &exact_spec(), &mut rng);
        backend.inject_stuck_cells(CellFault::StuckHigh, 1.0, &mut rng);
        let mut fresh = None;
        net.for_each_param(|k, t| {
            if k == "layer0.weight" {
                fresh = Some(t.clone());
            }
        });
        backend.write_layer("layer0.weight", &fresh.unwrap(), &mut rng);
        let back = InferenceBackend::readback(&backend);
        back.for_each_param(|k, t| {
            if k == "layer0.weight" {
                let mut orig = None;
                net.for_each_param(|k2, t2| {
                    if k2 == k {
                        orig = Some(t2.clone());
                    }
                });
                assert!(orig.unwrap().l1_distance(t) < 1e-6, "rewrite did not restore weights");
            }
        });
    }

    /// FNV-1a over the bits of every read-back parameter, in key order.
    fn readback_digest(backend: &MappedNetwork) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        InferenceBackend::readback(backend).for_each_param(|_, t| {
            for b in t.as_slice().iter().flat_map(|v| v.to_bits().to_le_bytes()) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        });
        h
    }

    #[test]
    fn tile_walk_matches_pinned_digests() {
        // Pinned from the per-level forwarding chain the tile walk
        // replaced. 8×6 tiles split the mlp's 12×16 and 16×5 weights into
        // 6 and 2 tiles, and the bit-sliced net keeps 4 slices of each, so
        // any change to the layer → slice → tile order moves the RNG
        // stream and the digests.
        let config =
            CrossbarConfig { rows: 8, cols: 6, write_noise: 0.05, ..CrossbarConfig::default() };
        let analog = BackendSpec { ir_drop: 0.02, ..BackendSpec::analog(config) };
        let sliced = BackendSpec::bitsliced(CrossbarConfig { cell_bits: 2, ..config }, 8);
        let mut got = Vec::new();
        for spec in [analog, sliced] {
            let mut rng = SeededRng::new(10);
            let net = tiny_mlp(12, 16, 5, &mut rng);
            let mut m = MappedNetwork::program(&net, &spec, &mut rng);
            m.inject_stuck_cells(CellFault::StuckHigh, 0.05, &mut rng);
            got.push(("stuck", readback_digest(&m)));
            m.disturb(0.1, &mut rng);
            got.push(("disturb", readback_digest(&m)));
            m.drift(0.2, 1.0, &mut rng);
            got.push(("drift", readback_digest(&m)));
            got.push(("flipped", m.flip_cells(0.01, &mut rng) as u64));
            got.push(("flip", readback_digest(&m)));
            m.enable_parity();
            got.push(("flipped", m.flip_cells(0.005, &mut rng) as u64));
            let outcome = m.scrub_parity();
            got.push(("corrected", outcome.corrected as u64));
            got.push(("uncorrectable", outcome.uncorrectable as u64));
            got.push(("scrub", readback_digest(&m)));
            // A stale baseline would read the drift as corruption.
            m.drift(0.2, 1.0, &mut rng);
            m.refresh_parity();
            m.flip_cells(0.005, &mut rng);
            let outcome = m.scrub_parity();
            got.push(("corrected", outcome.corrected as u64));
            got.push(("uncorrectable", outcome.uncorrectable as u64));
            got.push(("refresh", readback_digest(&m)));
            // A rewrite re-applies IR drop and keeps parity enabled.
            let golden = net.param("layer0.weight").expect("mlp weight").clone();
            m.write_layer("layer0.weight", &golden, &mut rng);
            m.flip_cells(0.005, &mut rng);
            m.scrub_parity();
            got.push(("rewrite", readback_digest(&m)));
        }
        let pinned = [
            // analog, IR drop on
            ("stuck", 0x9111_df24_5ed4_5f42),
            ("disturb", 0x5646_8c9c_fcbf_9688),
            ("drift", 0xeb76_85fa_2158_fc3d),
            ("flipped", 4),
            ("flip", 0xbfc5_4412_4ef3_5ba8),
            ("flipped", 2),
            ("corrected", 2),
            ("uncorrectable", 0),
            ("scrub", 0xbfc5_4412_4ef3_5ba8),
            ("corrected", 3),
            ("uncorrectable", 0),
            ("refresh", 0xcd26_7cfe_714a_3e2b),
            ("rewrite", 0x4d95_03cc_0fa8_1d89),
            // bit-sliced, 4 slices
            ("stuck", 0x0bd0_98a5_b797_3bb4),
            ("disturb", 0x9575_5ab2_f837_75df),
            ("drift", 0xac5f_0e88_7e9e_5d92),
            ("flipped", 23),
            ("flip", 0xa019_a1a8_8928_2ddd),
            ("flipped", 12),
            ("corrected", 12),
            ("uncorrectable", 0),
            ("scrub", 0xa019_a1a8_8928_2ddd),
            ("corrected", 13),
            ("uncorrectable", 0),
            ("refresh", 0xea11_a1b4_efb9_6496),
            ("rewrite", 0xbe33_d83a_d469_0759),
        ];
        assert_eq!(got, pinned);
    }

    #[test]
    fn deploy_report_profiles_layers() {
        let mut rng = SeededRng::new(8);
        let net = tiny_mlp(8, 12, 4, &mut rng);
        let spec = BackendSpec::analog(CrossbarConfig::default());
        let backend = MappedNetwork::program(&net, &spec, &mut rng);
        let probe = Tensor::randn(&[5, 8], &mut rng).map(|v| v.clamp(-1.0, 1.0));
        let report = backend.deploy_report(&probe);
        assert_eq!(report.mappings.len(), 2);
        let divergence = report.logit_divergence.expect("profiled report has divergence");
        assert!(divergence.is_finite() && divergence >= 0.0);
        for m in &report.mappings {
            assert!(m.utilization > 0.0 && m.utilization <= 1.0, "utilization {}", m.utilization);
            assert!(
                m.adc_range_used > 0.0 && m.adc_range_used <= 1.0,
                "adc range {}",
                m.adc_range_used
            );
            assert!(m.tiles >= 1);
        }
    }

    #[test]
    fn instantiate_digital_borrows() {
        let mut rng = SeededRng::new(9);
        let net = tiny_mlp(5, 6, 3, &mut rng);
        let x = Tensor::randn(&[2, 5], &mut rng);
        let spec = BackendSpec::digital();
        let active = spec.instantiate(&net, &mut rng);
        assert_eq!(active.backend_name(), "digital");
        assert_eq!(active.infer(&x), net.infer(&x));
        let analog = exact_spec().instantiate(&net, &mut rng);
        assert_eq!(analog.backend_name(), "analog");
        assert_eq!(analog.infer(&x), net.infer(&x));
    }

    #[test]
    #[should_panic(expected = "positive multiple of cell bits")]
    fn bitsliced_spec_rejects_bad_bits() {
        BackendSpec::bitsliced(CrossbarConfig { cell_bits: 3, ..CrossbarConfig::default() }, 8)
            .validate();
    }
}
