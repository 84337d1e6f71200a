"""Synthetic 8x8 thermal sequence generator.

A single Gaussian "body" blob moves over a noisy ambient field; at this
resolution that is visually indistinguishable from a real person and,
unlike real recordings, comes with analytic ground truth. Seven built-in
activity scripts mirror the overhead fall/ADL label schema:

* fall: fast lateral displacement while the blob spreads and cools;
* sit_still / stand_still: static blobs whose size and warmth ranges
  deliberately overlap, so these two stay the hardest pair to tell apart;
* sit_to_stand / stand_to_sit: opposite slow ramps between the two still
  poses, distinguishable by the time order of frame-wise spatial features;
* the two walks: exact left-right mirror paths. Because the features
  keep only transform magnitudes, a constant-speed constant-heat walk and
  its mirror would be mathematically identical; the scripts therefore walk
  with a gentle accelerating gait and warm slightly along the way, which is
  direction-revealing while keeping the mirror symmetry exact.

Everything is deterministic given the seed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from itertools import accumulate
from pathlib import Path

import numpy as np

from .core import (
    ADL7_LABELS,
    GRID_SIZE,
    MIN_ACTIVITY_FRAMES,
    PIXEL_COUNT,
    TEMP_MAX_C,
    TEMP_MIN_C,
    BackgroundEntry,
    ConfigError,
    DatasetManifest,
    ManifestEntry,
    ThermalSequence,
    _Checked,
    write_manifest,
    write_sequence,
)

# Fixed pattern used when no per-sensor offsets are supplied.
_OFFSET_SEED = 8833

MAX_FRAME_RATE_HZ = 1000.0  # the longest built-in recording (6.05 s) then has <= 6,048 frames
MAX_DURATION_S = 600.0  # a script then renders at most 600,000 frames at MAX_FRAME_RATE_HZ
SENSOR_SPAN_C = TEMP_MAX_C - TEMP_MIN_C  # bounds a scene's noise, pixel offsets and quantize step
MIN_QUANTIZE_STEP = 1e-6  # a finer step quantizes nothing, and 1e-310 overflows values / step

DEFAULT_DURATIONS_S = {
    "fall": 1.0,
    "sit_still": 5.0,
    "stand_still": 5.0,
    "sit_to_stand": 2.0,
    "stand_to_sit": 2.0,
    "walk_left_right": 3.0,
    "walk_right_left": 3.0,
}

# Canonical blob parameters for the two still poses. Overhead, a standing
# person is nearer the sensor: smaller and warmer than a seated one.
_STAND_SIGMA, _STAND_AMP = 0.78, 6.3
_SIT_SIGMA, _SIT_AMP = 1.05, 5.7


def default_pixel_offsets() -> np.ndarray:
    return np.random.default_rng(_OFFSET_SEED).uniform(-0.5, 0.5, PIXEL_COUNT)


@dataclass(frozen=True, eq=False)
class SceneParams(_Checked):
    """Sensor and environment model for rendering."""

    ambient_mean: float = 21.0
    ambient_pixel_offsets: np.ndarray = field(default_factory=default_pixel_offsets)
    noise_std: float = 0.25
    frame_rate_hz: float = 10.0
    quantize_step: float = 0.25

    def __post_init__(self):
        offsets = np.ravel(self.ambient_pixel_offsets)
        offsets = self._frozen_copy("ambient_pixel_offsets", offsets, np.float64)
        if offsets.shape != (PIXEL_COUNT,):
            raise ValueError(
                f"ambient_pixel_offsets must hold {PIXEL_COUNT} values, got {offsets.size}"
            )
        if not np.isfinite(offsets).all():
            raise ValueError("ambient_pixel_offsets must be finite")
        if (np.abs(offsets) > SENSOR_SPAN_C).any():
            raise ValueError(f"ambient_pixel_offsets must have magnitude <= {SENSOR_SPAN_C:g}")
        if not TEMP_MIN_C <= self.ambient_mean <= TEMP_MAX_C:
            raise ValueError("ambient_mean outside the sensor range")
        if not 0 < self.noise_std <= SENSOR_SPAN_C:
            raise ValueError(f"noise_std must be in (0, {SENSOR_SPAN_C:g}], got {self.noise_std!r}")
        if not 0 < self.frame_rate_hz <= MAX_FRAME_RATE_HZ:
            raise ValueError(
                f"frame_rate_hz must be in (0, {MAX_FRAME_RATE_HZ:g}] Hz, got {self.frame_rate_hz!r}"
            )
        step = self.quantize_step
        if not (step == 0 or MIN_QUANTIZE_STEP <= step <= SENSOR_SPAN_C):
            raise ValueError(
                f"quantize_step must be 0 or in [{MIN_QUANTIZE_STEP:g}, {SENSOR_SPAN_C:g}],"
                f" got {step!r}"
            )

    def to_dict(self) -> dict:
        return {**asdict(self), "ambient_pixel_offsets": self.ambient_pixel_offsets.tolist()}


@dataclass(frozen=True)
class ScriptKey:
    """Blob state at time fraction u of the script (0 = start, 1 = end)."""

    u: float
    x: float
    y: float
    sigma: float
    amplitude: float


@dataclass(frozen=True)
class ActivityScript:
    """Piecewise-linear blob trajectory for one activity instance.

    Between keys every channel (position, spread, amplitude) interpolates
    linearly. Paths must stay within the grid padded outward by two sigmas
    unless `allow_offgrid` is set (fall and exit style scripts).
    """

    duration_s: float
    keys: tuple[ScriptKey, ...]
    allow_offgrid: bool = False

    def __post_init__(self):
        object.__setattr__(self, "keys", tuple(self.keys))
        if not 0 < self.duration_s <= MAX_DURATION_S:
            raise ValueError(
                f"duration_s must be positive and at most {MAX_DURATION_S:g} s,"
                f" got {self.duration_s!r}"
            )
        if not self.keys:
            raise ValueError("script needs at least one key")
        us = [k.u for k in self.keys]
        if us != sorted(us) or us[0] < 0 or us[-1] > 1:
            raise ValueError("key time fractions must be non-decreasing within [0, 1]")
        lim = GRID_SIZE - 1
        for k in self.keys:
            if k.sigma <= 0:
                raise ValueError(f"degenerate blob sigma at u={k.u}")
            pad = 2 * k.sigma
            if not (self.allow_offgrid or (-pad <= k.x <= lim + pad and -pad <= k.y <= lim + pad)):
                raise ValueError(f"blob path leaves the padded grid at u={k.u}")

    def sample(self, u: np.ndarray) -> tuple[np.ndarray, ...]:
        """(x, y, sigma, amplitude) arrays at time fractions u."""
        us, *channels = np.array([(k.u, k.x, k.y, k.sigma, k.amplitude) for k in self.keys]).T
        return tuple(np.interp(u, us, values) for values in channels)

    def mirrored_x(self) -> "ActivityScript":
        """The same script reflected left-right (x -> 7 - x)."""
        keys = tuple(replace(k, x=(GRID_SIZE - 1) - k.x) for k in self.keys)
        return replace(self, keys=keys)


def blob_field(script: ActivityScript, u: np.ndarray) -> np.ndarray:
    """Noise-free blob contribution at pixel centers, shape (len(u), 64)."""
    return _blob(*script.sample(u))


def _blob(x, y, sigma, amp):
    grid = np.arange(GRID_SIZE, dtype=np.float64)
    spread = 2.0 * sigma[:, None] ** 2
    dx2 = (grid[None, :] - x[:, None]) ** 2 / spread
    dy2 = (grid[None, :] - y[:, None]) ** 2 / spread
    blob = amp[:, None, None] * np.exp(-(dy2[:, :, None] + dx2[:, None, :]))
    return blob.reshape(len(x), PIXEL_COUNT)


def frame_count(scene: SceneParams, script: ActivityScript) -> int:
    return max(1, round(script.duration_s * scene.frame_rate_hz))


def frame_times(scene: SceneParams, script: ActivityScript) -> np.ndarray:
    return np.arange(frame_count(scene, script)) / scene.frame_rate_hz


def render_frames(
    scene: SceneParams, script: ActivityScript, seed: int | np.random.Generator
) -> tuple[ThermalSequence, int]:
    """A script rendered into a raw sequence, plus the count of clamped values.

    Frame f sits at time f / frame_rate, stamped in whole milliseconds; the
    value of each pixel is ambient mean + fixed per-pixel offset + blob +
    i.i.d. Gaussian noise, optionally quantized, then clamped to the sensor
    range (clamping should not occur at default settings).
    """
    (seq,), clamped = _render_session(scene, [script], [np.random.default_rng(seed)])
    return seq, clamped


def _render_session(
    scene: SceneParams, scripts: list[ActivityScript], rngs: list[np.random.Generator]
) -> tuple[list[ThermalSequence], int]:
    """`render_frames` of each script with the noise of its own generator, in one pass.

    Only the blob path and the noise are drawn per recording; every later
    step is elementwise over the stacked frames, so each recording gets the
    bits it would get alone. Returns the sequences and the total clamp count.
    """
    times = [frame_times(scene, script) for script in scripts]
    paths = [s.sample(np.clip(t / s.duration_s, 0.0, 1.0)) for s, t in zip(scripts, times)]
    noise = [rng.normal(0.0, scene.noise_std, (len(t), PIXEL_COUNT)) for rng, t in zip(rngs, times)]
    values = (
        scene.ambient_mean
        + scene.ambient_pixel_offsets[None, :]
        + _blob(*np.concatenate(paths, axis=1))
        + np.concatenate(noise)
    )
    if scene.quantize_step > 0:
        values = np.round(values / scene.quantize_step) * scene.quantize_step
    clamped = int(np.count_nonzero((values < TEMP_MIN_C) | (values > TEMP_MAX_C)))
    values = np.clip(values, TEMP_MIN_C, TEMP_MAX_C)
    ends = np.cumsum([len(t) for t in times]).tolist()
    seqs = [
        ThermalSequence(pixels=values[end - len(t) : end], timestamps_ms=np.round(1000.0 * t))
        for t, end in zip(times, ends)
    ]
    return seqs, clamped


# ---------------------------------------------------------------------------
# Built-in activity scripts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubjectProfile:
    """Per-subject habits: where they linger, how warm/big/fast they read."""

    center_x: float = 3.5
    center_y: float = 3.5
    sigma_shift: float = 0.0
    amplitude_shift: float = 0.0
    speed_factor: float = 1.0
    walk_lane: float = 3.5

    @classmethod
    def draw(cls, rng: np.random.Generator) -> "SubjectProfile":
        return cls(
            center_x=3.5 + rng.uniform(-0.6, 0.6),
            center_y=3.5 + rng.uniform(-0.6, 0.6),
            sigma_shift=rng.uniform(-0.08, 0.08),
            amplitude_shift=rng.uniform(-0.25, 0.25),
            speed_factor=rng.uniform(0.88, 1.12),
            walk_lane=3.5 + rng.uniform(-0.8, 0.8),
        )


# The jitter of every built-in script, name: (low, high) per draw, in the
# order a recording's generator yields them. Each recording draws all 41
# values in one `uniform` call, whichever script it keeps, so its noise always
# starts at the same point of its stream. Both walks read the "walk" draws.
_STILL_JITTER = {
    "duration": (0.92, 1.08), "sigma": (-0.09, 0.09), "amplitude": (-0.22, 0.22),
    "cx": (-0.35, 0.35), "cy": (-0.35, 0.35),
}
_TRANSITION_JITTER = {
    "duration": (0.92, 1.08), "sit_sigma": (-0.06, 0.06), "stand_sigma": (-0.06, 0.06),
    "sit_amplitude": (-0.18, 0.18), "stand_amplitude": (-0.18, 0.18),
    "cx": (-0.35, 0.35), "cy": (-0.35, 0.35), "dx": (-0.3, 0.3), "dy": (-0.3, 0.3),
}
_JITTER = {
    "fall": {
        "duration": (0.92, 1.08), "cx": (-0.45, 0.45), "cy": (-0.45, 0.45),
        "angle": (0.0, 2.0 * np.pi), "dist": (1.9, 2.5),
        "amplitude": (-0.15, 0.15), "sigma": (-0.05, 0.05),
    },
    "sit_still": _STILL_JITTER,
    "stand_still": _STILL_JITTER,
    "sit_to_stand": _TRANSITION_JITTER,
    "stand_to_sit": _TRANSITION_JITTER,
    "walk": {
        "duration": (0.92, 1.08), "lane": (-0.25, 0.25), "x0": (0.0, 0.2), "x1": (0.0, 0.2),
        "sigma": (-0.07, 0.07), "amplitude": (-0.15, 0.15),
    },
}
_JITTER_LOW, _JITTER_HIGH = np.array([b for rows in _JITTER.values() for b in rows.values()]).T
_JITTER_START = dict(zip(_JITTER, accumulate(map(len, _JITTER.values()), initial=0)))


def _still_script(label, j, profile, duration):
    sit = label == "sit_still"
    sigma = (_SIT_SIGMA if sit else _STAND_SIGMA) + profile.sigma_shift + j["sigma"]
    amp = (_SIT_AMP if sit else _STAND_AMP) + profile.amplitude_shift + j["amplitude"]
    cx = profile.center_x + j["cx"]
    cy = profile.center_y + j["cy"]
    keys = (
        ScriptKey(0.0, cx, cy, sigma, amp),
        ScriptKey(1.0, cx, cy, sigma, amp),
    )
    return ActivityScript(duration_s=duration, keys=keys)


def _transition_script(label, j, profile, duration):
    sit_sigma = _SIT_SIGMA + profile.sigma_shift + j["sit_sigma"]
    stand_sigma = _STAND_SIGMA + profile.sigma_shift + j["stand_sigma"]
    sit_amp = _SIT_AMP + profile.amplitude_shift + j["sit_amplitude"]
    stand_amp = _STAND_AMP + profile.amplitude_shift + j["stand_amplitude"]
    cx = profile.center_x + j["cx"]
    cy = profile.center_y + j["cy"]
    dx, dy = j["dx"], j["dy"]
    if label == "sit_to_stand":
        start = (sit_sigma, sit_amp)
        end = (stand_sigma, stand_amp)
    else:
        start = (stand_sigma, stand_amp)
        end = (sit_sigma, sit_amp)
    # Mid-motion the body leans and moves: it reads briefly more compact and
    # warmer than either pose. Stills never show this bump, which keeps
    # slow transitions with similar endpoints from looking like one.
    mid_sigma = 0.82 * (start[0] + end[0]) / 2.0
    mid_amp = max(start[1], end[1]) + 0.45
    keys = (
        ScriptKey(0.0, cx, cy, *start),
        ScriptKey(0.45, cx + 0.6 * dx, cy + 0.6 * dy, mid_sigma, mid_amp),
        ScriptKey(1.0, cx + dx, cy + dy, *end),
    )
    return ActivityScript(duration_s=duration, keys=keys)


def _fall_script(j, profile, duration):
    cx = min(max(profile.center_x + j["cx"], 2.6), 4.4)
    cy = min(max(profile.center_y + j["cy"], 2.6), 4.4)
    angle, dist = j["angle"], j["dist"]
    ex, ey = cx + dist * np.cos(angle), cy + dist * np.sin(angle)
    amp0 = 6.3 + profile.amplitude_shift + j["amplitude"]
    sigma0 = 0.8 + profile.sigma_shift + j["sigma"]
    keys = (
        ScriptKey(0.0, cx, cy, sigma0, amp0),
        ScriptKey(0.4, cx + 0.55 * (ex - cx), cy + 0.55 * (ey - cy), 1.15, amp0 - 0.7),
        ScriptKey(1.0, ex, ey, 1.7 + profile.sigma_shift, 3.9 + profile.amplitude_shift),
    )
    return ActivityScript(duration_s=duration, keys=keys, allow_offgrid=True)


def _walk_script(j, profile, duration):
    # Left-to-right form; the right-to-left script is its exact x mirror.
    # The gait accelerates and the blob warms along the way: magnitude-only
    # features cannot tell mirrored constant walks apart, these asymmetries
    # in time are what make the two directions separable.
    lane = profile.walk_lane + j["lane"]
    x0 = 0.45 + j["x0"]
    x1 = 6.55 - j["x1"]
    sigma = 0.85 + profile.sigma_shift + j["sigma"]
    amp0 = 5.85 + profile.amplitude_shift + j["amplitude"]
    amp1 = amp0 + 0.6
    span = x1 - x0
    keys = (
        ScriptKey(0.0, x0, lane, sigma, amp0),
        ScriptKey(0.3, x0 + 0.22 * span, lane, sigma, amp0 + 0.18),
        ScriptKey(0.6, x0 + 0.55 * span, lane, sigma, amp0 + 0.38),
        ScriptKey(1.0, x1, lane, sigma, amp1),
    )
    return ActivityScript(duration_s=duration, keys=keys)


def _draw_jitter(rng: np.random.Generator) -> list[float]:
    """The 41 jitter values of one recording, in `_JITTER` order, from one call."""
    return rng.uniform(_JITTER_LOW, _JITTER_HIGH).tolist()


def _builtin_script(label: str, jitter: list[float], profile: SubjectProfile) -> ActivityScript:
    """The built-in script of `label`, from a recording's `_draw_jitter`."""
    group = "walk" if label.startswith("walk") else label
    j = dict(zip(_JITTER[group], jitter[_JITTER_START[group] :]))
    duration = DEFAULT_DURATIONS_S[label] * profile.speed_factor * j["duration"]
    if label == "fall":
        # falls complete within their nominal duration: jitter only shortens them
        return _fall_script(j, profile, min(DEFAULT_DURATIONS_S["fall"], duration))
    if label.endswith("_still"):
        return _still_script(label, j, profile, duration)
    if group == "walk":
        walk = _walk_script(j, profile, duration)
        return walk if label == "walk_left_right" else walk.mirrored_x()
    return _transition_script(label, j, profile, duration)


def builtin_scripts(
    rng: np.random.Generator, profile: SubjectProfile | None = None
) -> dict[str, ActivityScript]:
    """One script per built-in label, jittered from one draw of `rng`.

    The two walk scripts share one parameter draw, so they are exact mirror
    images of each other.
    """
    profile = profile or SubjectProfile()
    jitter = _draw_jitter(rng)
    return {label: _builtin_script(label, jitter, profile) for label in ADL7_LABELS}


def empty_scene_script(duration_s: float = 6.0) -> ActivityScript:
    """A zero-amplitude script: rendering it yields pure ambient + noise."""
    keys = (
        ScriptKey(0.0, 3.5, 3.5, 1.0, 0.0),
        ScriptKey(1.0, 3.5, 3.5, 1.0, 0.0),
    )
    return ActivityScript(duration_s=duration_s, keys=keys)


# ---------------------------------------------------------------------------
# Corpus generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusSummary:
    manifest_path: Path
    sequence_count: int
    clamped_values: int


def generate_corpus(
    out_dir: str | Path,
    subjects: int,
    reps: int,
    seed: int,
    scene: SceneParams | None = None,
) -> CorpusSummary:
    """Write a labeled corpus: frame CSVs, a background clip, manifest JSON.

    Layout: subjects x reps x the 7 built-in activities, one session per
    (subject, rep), a single global background clip. Same seed, same bytes.
    """
    if subjects < 1 or reps < 1:
        raise ValueError("subjects and reps must be >= 1")
    for name, streams in (("subjects", subjects + 1), ("reps", 1 + reps * len(ADL7_LABELS))):
        if streams > np.iinfo(np.intp).max:  # SeedSequence.spawn counts in a C ssize_t
            raise ValueError(f"{name} too large: needs {streams} random streams")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    scene = scene or SceneParams()
    children = np.random.SeedSequence(seed).spawn(subjects + 1)
    # Every script is drawn and its frame count checked before anything is written.
    sessions = []  # (subject, session, scripts, the generators that draw their noise)
    per_session = len(ADL7_LABELS)
    for si in range(1, subjects + 1):
        streams = children[si].spawn(1 + reps * per_session)
        profile = SubjectProfile.draw(np.random.default_rng(streams[0]))
        for rep, first in enumerate(range(1, len(streams), per_session), start=1):
            rngs = [np.random.default_rng(s) for s in streams[first : first + per_session]]
            session_id, scripts = f"s{si:02d}r{rep}", []
            for label, rng in zip(ADL7_LABELS, rngs):
                script = _builtin_script(label, _draw_jitter(rng), profile)
                if (n := frame_count(scene, script)) < MIN_ACTIVITY_FRAMES:
                    raise ConfigError(
                        f"frame_rate_hz {scene.frame_rate_hz!r} gives {session_id}_{label}.csv"
                        f" {n} frame(s), needs at least {MIN_ACTIVITY_FRAMES}"
                    )
                scripts.append(script)
            sessions.append((f"s{si:02d}", session_id, scripts, rngs))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    background, clamped = render_frames(
        scene, empty_scene_script(), np.random.default_rng(children[0])
    )
    write_sequence(background, out / "background.csv")
    entries = []
    for subject_id, session_id, scripts, rngs in sessions:
        seqs, c = _render_session(scene, scripts, rngs)
        clamped += c
        for label, seq in zip(ADL7_LABELS, seqs):
            name = f"{session_id}_{label}.csv"
            write_sequence(seq, out / name)
            entries.append(
                ManifestEntry(path=name, label=label, subject_id=subject_id, session_id=session_id)
            )

    manifest = DatasetManifest(
        entries=tuple(entries),
        label_set=ADL7_LABELS,
        sensor_id="synthetic-grid8",
        backgrounds=(BackgroundEntry(path="background.csv"),),
        root=out,
    )
    manifest_path = out / "manifest.json"
    write_manifest(manifest, manifest_path)
    (out / "generation.json").write_text(
        json.dumps(
            {"seed": seed, "subjects": subjects, "reps": reps, "scene": scene.to_dict()},
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    return CorpusSummary(manifest_path, len(entries), clamped)
