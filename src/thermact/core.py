"""The sequence container plus frame CSV and dataset manifest I/O.

A recording is a sequence of 8x8 temperature grids, held as one read-only
(frames, 64) array with a (frames,) timestamp array; one helper holds the
validity rules that construction and parsing both apply. Frame files are
plain CSV (one frame per row); which activity a recording shows, and who
performed it, lives in a JSON manifest so recordings can be re-labeled
without touching pixel data. Loading a manifest parses every file once and
holds each recording it parsed until a later step looks it up, so loading and
then using a manifest reads each file once.
"""

from __future__ import annotations

import functools
import json
import os
import reprlib
import sys
import typing
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

GRID_SIZE = 8
PIXEL_COUNT = GRID_SIZE * GRID_SIZE

# Measurement range of the Grid-EYE style thermopile arrays this library targets.
TEMP_MIN_C = 0.0
TEMP_MAX_C = 80.0

# Default 7-activity label schema for overhead fall/ADL monitoring.
ADL7_LABELS = (
    "fall",
    "sit_still",
    "stand_still",
    "sit_to_stand",
    "stand_to_sit",
    "walk_left_right",
    "walk_right_left",
)

BACKGROUND_ROLE = "background"

# Frames a labeled activity recording needs at least.
MIN_ACTIVITY_FRAMES = 2


class ThermactError(Exception):
    """Base class for errors raised by this package."""


class SequenceFormatError(ThermactError):
    """A frame CSV file violates the expected format."""


class ManifestError(ThermactError):
    """A dataset manifest is invalid. Carries every violation found."""

    def __init__(self, violations: list[str], where: str = "manifest"):
        self.violations = list(violations)
        if len(self.violations) == 1:
            message = f"invalid {where}: {self.violations[0]}"
        else:
            lines = "".join("\n  - " + v for v in self.violations)
            message = f"invalid {where} ({len(self.violations)} problems):{lines}"
        super().__init__(message)


class ConfigError(ThermactError, ValueError):
    """A settings object read from JSON is malformed; the message names where and the key."""


def _number(v) -> bool:
    """A finite JSON number: abs() of NaN, an infinity or a huge int fails the bound."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


_type_hints = functools.cache(typing.get_type_hints)  # evaluates annotations on every call

# Each field type of a settings dataclass, and the JSON values it takes.
_JSON_TYPES = {
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a finite number", _number),
    str: ("a string", lambda v: isinstance(v, str)),
    np.ndarray: (
        "a list of finite numbers", lambda v: isinstance(v, list) and all(map(_number, v))
    ),
}


def from_json(cls, data, where: str, _prefix: str = ""):
    """Build the settings dataclass `cls` from a parsed JSON object.

    The keys are the fields of `cls`; a missing key takes its default. Each
    value must have its field's type: an int field takes a JSON integer (not
    a bool), a float field a finite number, a str field a string, an
    np.ndarray field a list of finite numbers, and a dataclass field a nested
    object, read the same way. Values pass through unchanged. Any violation,
    or a ValueError from `cls` itself, is a ConfigError naming `where` (the
    file or flag the object came from) and the dotted key.
    """
    if not isinstance(data, dict):
        key = f"{_prefix[:-1]} " if _prefix else ""
        raise ConfigError(f"{where}: {key}must be a JSON object, got {reprlib.repr(data)}")
    hints = _type_hints(cls)
    names = {f.name for f in fields(cls)}
    unknown = [_prefix + key for key in data if key not in names]
    if unknown:
        raise ConfigError(f"{where}: unknown config key(s) {unknown}")
    kwargs = {}
    for key, value in data.items():
        if is_dataclass(hints[key]):
            value = from_json(hints[key], value, where, f"{_prefix}{key}.")
        elif not _JSON_TYPES[hints[key]][1](value):
            what, got = _JSON_TYPES[hints[key]][0], reprlib.repr(value)
            raise ConfigError(f"{where}: {_prefix}{key} must be {what}, got {got}")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {_prefix}{exc}") from None


def from_json_file(cls, path: str | Path):
    """`from_json` of the JSON file at `path`; every error names the file."""
    try:
        data = json.loads(Path(path).read_bytes())
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
        raise ConfigError(f"{path}: not valid JSON: {exc}") from None
    return from_json(cls, data, str(path))


def _first_bad_frame(pixels: np.ndarray, timestamps: np.ndarray) -> tuple[int, str] | None:
    """Index of the first frame that breaks a validity rule, and the rule.

    `pixels` is (F, 64) float64, `timestamps` (F,) float64. Every frame needs
    64 finite pixels and a non-negative integer timestamp no smaller than the
    one before it (equal stamps are legal: files without a timestamp column
    are all 0), and must lie within the sensor range. None if all hold.
    """
    if pixels.ndim != 2 or pixels.shape[1] != PIXEL_COUNT:
        return 0, f"needs {PIXEL_COUNT} pixels per frame, got shape {pixels.shape}"
    if timestamps.shape != (len(pixels),):
        return 0, f"needs one timestamp per frame, got shape {timestamps.shape}"
    rules = [
        (
            ~((timestamps >= 0) & (timestamps < 2.0**63) & (timestamps == np.floor(timestamps))),
            "timestamp must be a non-negative integer, got {ts:g}",
        ),
        (
            np.concatenate(([False], timestamps[1:] < timestamps[:-1])),
            "timestamp {ts:g} is earlier than the previous frame's {prev:g}",
        ),
        (~np.isfinite(pixels).all(axis=1), "non-finite pixel value"),
        (
            ((pixels < TEMP_MIN_C) | (pixels > TEMP_MAX_C)).any(axis=1),
            f"raw temperature outside [{TEMP_MIN_C}, {TEMP_MAX_C}] C (min={{lo}}, max={{hi}})",
        ),
    ]
    # (row, rule number) of each broken rule's first row; ties go to the earlier rule.
    broken = [(int(np.argmax(bad)), k) for k, (bad, _) in enumerate(rules) if bad.any()]
    if not broken:
        return None
    i, k = min(broken)
    return i, rules[k][1].format(
        ts=timestamps[i], prev=timestamps[i - 1], lo=pixels[i].min(), hi=pixels[i].max()
    )


class _Checked:
    """A frozen dataclass whose arrays are read-only copies that `_frozen_copy` stores
    and `__post_init__` checks; a pickled or deep copy is rebuilt by the constructor."""

    def _frozen_copy(self, name: str, value, dtype) -> np.ndarray:
        arr = np.array(value, dtype=dtype)
        arr.flags.writeable = False
        object.__setattr__(self, name, arr)
        return arr

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True, eq=False)
class ThermalSequence(_Checked):
    """The raw frames of one recording, as a file or the generator made them.

    `pixels` is a read-only (F, 64) float64 array, one row-major 8x8 grid of
    temperatures (degrees Celsius) per frame, each within the sensor
    measurement range; `timestamps_ms` is a read-only (F,) int64 array, all 0
    when the source carried no timing (the default). What is derived from a
    recording (its background-subtracted or resampled frames) is a plain
    array, not a sequence. What a recording shows and who is in it are
    manifest facts (`ManifestEntry`), not part of the sequence.
    Activity recordings are expected to hold at least 2 frames; single-frame
    sequences are permitted so that e.g. a one-frame empty-scene clip can
    still seed a background model.
    """

    pixels: np.ndarray
    timestamps_ms: np.ndarray | None = None

    def __post_init__(self):
        pixels = self._frozen_copy("pixels", self.pixels, np.float64)
        if pixels.size == 0:
            raise ValueError("sequence needs at least one frame")
        stamps = self.timestamps_ms
        stamps = np.zeros(pixels.shape[:1]) if stamps is None else np.asarray(stamps)
        bad = _first_bad_frame(pixels, stamps.astype(np.float64))
        if bad is not None:
            raise ValueError(f"frame {bad[0]}: {bad[1]}")
        self._frozen_copy("timestamps_ms", stamps, np.int64)

    def __len__(self) -> int:
        return len(self.pixels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ThermalSequence):
            return NotImplemented
        return np.array_equal(self.timestamps_ms, other.timestamps_ms) and np.array_equal(
            self.pixels, other.pixels
        )


# ---------------------------------------------------------------------------
# Frame CSV I/O
#
# One frame per row: `timestamp_ms,p00,...,p77` (65 fields) or the 64 pixel
# fields alone. Lines starting with `#` and blank lines are ignored. Lines
# end at `\n`, `\r\n` or `\r`; any other separator is in-row whitespace.
# ---------------------------------------------------------------------------


def parse_sequence(source: bytes | str) -> ThermalSequence:
    """Parse frame CSV content into a sequence.

    Raises SequenceFormatError naming the first offending 1-based line for
    text that is not UTF-8, rows with the wrong field count, non-numeric or
    non-finite values, a timestamp that is not a non-negative integer or is
    earlier than the row before, raw temperatures outside the sensor range,
    or if no data rows are present.
    """
    if isinstance(source, bytes):
        try:
            text = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = len(_lines(source[: exc.start].decode("utf-8")))
            raise SequenceFormatError(f"line {line}: not UTF-8 text ({exc.reason})") from None
    else:
        text = source
    rows: list[list[float]] = []
    stamps: list[float] = []
    linenos: list[int] = []
    error = None  # the row error that ended parsing, if any
    for lineno, line in enumerate(_lines(text), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split(",")
        if len(fields) not in (PIXEL_COUNT, PIXEL_COUNT + 1):
            error = (
                f"line {lineno}: expected {PIXEL_COUNT} or {PIXEL_COUNT + 1} "
                f"fields, got {len(fields)}"
            )
            break
        try:
            plain = stripped.isascii() and "_" not in stripped  # ~60 ns: a flag and a scan
            values = list(map(float if plain else _ascii_number, fields))
        except ValueError as exc:
            error = f"line {lineno}: non-numeric field ({exc})"
            break
        stamps.append(values.pop(0) if len(values) > PIXEL_COUNT else 0.0)
        rows.append(values)
        linenos.append(lineno)
    if rows and error is None:
        try:
            return ThermalSequence(pixels=rows, timestamps_ms=stamps)
        except ValueError:
            pass  # a bad value: found again below to name its line
    # A bad value in an earlier row is reported before the row error.
    bad = _first_bad_frame(np.array(rows), np.array(stamps)) if rows else None
    if bad is not None:
        raise SequenceFormatError(f"line {linenos[bad[0]]}: {bad[1]}")
    if error is not None:
        raise SequenceFormatError(error)
    raise SequenceFormatError("no frame rows found (empty file)")


def _ascii_number(field: str) -> float:
    """`float(field)` for a plain ASCII number; float() also reads "2_5" and non-ASCII digits."""
    if not field.strip().isascii() or "_" in field:
        raise ValueError(f"{field.strip()!r} is not an ASCII number")
    return float(field)


def _lines(text: str) -> list[str]:
    """`text` split at LF, CRLF and CR only, unlike `splitlines`."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def read_sequence(path: str | Path) -> ThermalSequence:
    """Read and parse a frame CSV file; a format error names the file."""
    path = Path(path)
    try:
        return parse_sequence(path.read_bytes())
    except SequenceFormatError as exc:
        raise SequenceFormatError(f"{path}: {exc}") from None


_CSV_HEADER = (
    "# timestamp_ms," + ",".join(f"p{r}{c}" for r, c in np.ndindex(GRID_SIZE, GRID_SIZE)) + "\n"
)


def serialize_sequence(seq: ThermalSequence) -> str:
    """Render a sequence as frame CSV at full float precision.

    The timestamp column is always written, and each pixel as the `repr` of
    its float, so `parse_sequence` of the result reproduces the frames
    bit-exactly.
    """
    # One repr per distinct bit pattern: quantized frames hold few distinct
    # values, and bits keep -0.0 apart from 0.0. Each cell text carries the
    # separator after it: `texts` holds every repr with ",", every repr with
    # "\n" (the last column), then each frame's "<stamp>,". `cells` indexes
    # it, so the frames are one gather and one join.
    bits, inverse = np.unique(seq.pixels.view(np.int64).ravel(), return_inverse=True)
    reprs = [repr(v) for v in bits.view(np.float64).tolist()]
    k, n = len(reprs), len(seq)
    stamps = [f"{stamp}," for stamp in seq.timestamps_ms.tolist()]
    texts = np.array([r + "," for r in reprs] + [r + "\n" for r in reprs] + stamps, dtype=object)
    cells = np.empty((n, PIXEL_COUNT + 1), dtype=np.intp)
    cells[:, 0] = np.arange(2 * k, 2 * k + n)
    cells[:, 1:] = inverse.reshape(n, PIXEL_COUNT)
    cells[:, -1] += k
    return _CSV_HEADER + "".join(texts[cells.ravel()].tolist())


def write_sequence(seq: ThermalSequence, path: str | Path) -> None:
    Path(path).write_text(serialize_sequence(seq), encoding="utf-8")


# ---------------------------------------------------------------------------
# Dataset manifests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ManifestEntry:
    """One labeled recording: where it lives and who/what it shows."""

    path: str
    label: str
    subject_id: str
    session_id: str


@dataclass(frozen=True)
class BackgroundEntry:
    """An empty-scene clip; session_id == "" marks the global fallback."""

    path: str
    session_id: str = ""


@dataclass(frozen=True)
class DatasetManifest:
    """Index of a dataset: labeled entries, label schema, background clips.

    The constructor holds every rule a manifest's own fields obey (string ids,
    labels and paths, non-empty, distinct labels, entry labels from `label_set`,
    unique paths, one background clip per session) and raises one ManifestError
    listing every violation, naming an entry by its path and a field by its JSON
    key; `load_manifest` adds the JSON shape and the file checks. `root` is the
    directory entry paths are resolved against. `_parsed` maps each entry and
    background path to its minimum frame count, its file's stamp and its parsed
    sequence until `recording` hands that out (None after); `load_manifest`
    fills it, a manifest built in memory has none.
    """

    entries: tuple[ManifestEntry, ...]
    label_set: tuple[str, ...]
    sensor_id: str = ""
    backgrounds: tuple[BackgroundEntry, ...] = ()
    root: Path | None = None
    _parsed: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        for name in ("entries", "label_set", "backgrounds"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        violations = _non_strings("", sensor_id=self.sensor_id)
        if not self.entries:
            violations.append("empty dataset: no labeled entries")
        if not all(isinstance(s, str) for s in self.label_set):
            violations.append('"label_set" items must be strings')
        elif len(set(self.label_set)) != len(self.label_set):
            violations.append("label_set contains duplicates")
        seen_paths: set[str] = set()
        for e in self.entries:
            ids = dict(path=e.path, label=e.label, subject=e.subject_id, session=e.session_id)
            if bad := _non_strings(f"entry {e.path!r}: ", **ids):
                violations += bad
                continue  # the rules below hash and compare strings
            if e.label not in self.label_set:
                violations.append(f"entry {e.path!r}: unknown label {e.label!r}")
            if e.path in seen_paths:
                violations.append(f"entry {e.path!r}: duplicate path")
            seen_paths.add(e.path)
        bg_sessions: set[str] = set()
        for bg in self.backgrounds:
            ids = dict(path=bg.path, session=bg.session_id)
            if bad := _non_strings(f"background {bg.path!r}: ", **ids):
                violations += bad
                continue
            if bg.path in seen_paths:
                violations.append(f"background {bg.path!r}: duplicate path")
            seen_paths.add(bg.path)
            if bg.session_id in bg_sessions:
                which = f"session {bg.session_id!r}" if bg.session_id else "the global fallback"
                violations.append(f"more than one background clip for {which}")
            bg_sessions.add(bg.session_id)
        if violations:
            raise ManifestError(violations)

    def resolve(self, path: str) -> Path:
        return _resolve(self.root, path)

    def recording(self, path: str) -> ThermalSequence:
        """The frames of an entry or background path.

        The first lookup hands out the sequence `load_manifest` parsed, and
        the manifest lets go of it. A later lookup, or one after the file has
        changed, reads the file under `load_manifest`'s checks: a lookup only
        returns frames the file holds now and the manifest accepts.
        """
        try:
            min_frames, stamp, seq = self._parsed[path]
        except KeyError:
            raise ManifestError(
                [f"no parsed recording for {path!r}: load the manifest with load_manifest"]
            ) from None
        file = self.resolve(path)
        if seq is not None and _stamp(file.stat()) == stamp:
            self._parsed[path] = min_frames, stamp, None
            return seq
        return _read_checked(file, min_frames)[1]


def _stamp(st: os.stat_result) -> tuple[int, int, int]:
    """What changes when a file is rewritten or replaced: inode, mtime, size."""
    return st.st_ino, st.st_mtime_ns, st.st_size


def _non_strings(where: str, **values) -> list[str]:
    """A violation for each of `values`, keyed by its JSON name, that is not a string."""
    return [f'{where}"{k}" must be a string' for k, v in values.items() if not isinstance(v, str)]


def _resolve(root: Path | None, path: str) -> Path:
    p = Path(path)
    if p.is_absolute() or root is None:
        return p
    return root / p


def load_manifest(path: str | Path) -> DatasetManifest:
    """Load and eagerly validate a manifest JSON file.

    The reader checks the JSON shape (an object whose "label_set" and
    "entries" are lists, each entry an object with a string "path") and hands
    every value on to `DatasetManifest`, whose rules apply. Every referenced
    frame file must exist and parse; activity entries must hold at least
    MIN_ACTIVITY_FRAMES frames. All violations are reported together in a
    single ManifestError; a file that cannot be read is a ThermactError.
    The manifest holds the sequences it parsed until `load_sequences`/
    `load_backgrounds` look them up (see `DatasetManifest.recording`).
    """
    path = Path(path)
    try:
        data = json.loads(path.read_bytes())
    except OSError as exc:
        raise ThermactError(f"cannot read manifest {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
        raise ManifestError([f"manifest {path} is not valid JSON: {exc}"]) from exc
    if not isinstance(data, dict):
        raise ManifestError([f"manifest {path}: top level must be a JSON object"])

    violations: list[str] = []
    label_set, raw_entries = data.get("label_set"), data.get("entries")
    if not isinstance(label_set, list):
        violations.append('"label_set" must be a list')
        label_set = []
    if not isinstance(raw_entries, list):
        violations.append('"entries" must be a list')
        raw_entries = []

    entries, backgrounds = [], []
    for i, item in enumerate(raw_entries):
        if not isinstance(item, dict) or not isinstance(item.get("path"), str):
            violations.append(f'entry {i}: must be an object with a string "path" field')
        elif item.get("role") == BACKGROUND_ROLE:
            backgrounds.append(BackgroundEntry(item["path"], item.get("session", "")))
        else:
            ids = item.get("subject", ""), item.get("session", "")
            entries.append(ManifestEntry(item["path"], item.get("label"), *ids))

    root, parsed, sensor_id = path.parent, {}, data.get("sensor_id", "")
    try:
        manifest = DatasetManifest(entries, label_set, sensor_id, backgrounds, root, parsed)
    except ManifestError as exc:
        violations += exc.violations
    wanted = [(e.path, MIN_ACTIVITY_FRAMES) for e in entries]
    wanted += [(bg.path, 1) for bg in backgrounds]
    for rel, min_frames in wanted:
        try:
            parsed[rel] = min_frames, *_read_checked(_resolve(root, rel), min_frames)
        except ManifestError as exc:
            violations += exc.violations

    if violations:
        raise ManifestError(violations, f"manifest {path}")
    return manifest


def _read_checked(path: Path, min_frames: int):
    """(file stamp, parsed file), or a ManifestError naming the file."""
    if not path.is_file():
        raise ManifestError([f"missing file: {path}"])
    st = path.stat()  # before the read: a change in between then shows as a change
    try:
        seq = read_sequence(path)
    except SequenceFormatError as exc:
        raise ManifestError([str(exc)]) from None
    if len(seq) < min_frames:
        raise ManifestError([f"{path}: needs at least {min_frames} frames, has {len(seq)}"])
    return _stamp(st), seq


def load_sequences(manifest: DatasetManifest) -> list[ThermalSequence]:
    """The frames of every activity entry, in manifest order: item i is entry i's."""
    return [manifest.recording(e.path) for e in manifest.entries]


def load_backgrounds(manifest: DatasetManifest) -> dict[str, ThermalSequence]:
    """Background clips keyed by session id ("" = global fallback)."""
    return {bg.session_id: manifest.recording(bg.path) for bg in manifest.backgrounds}


def write_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    """Write a manifest as JSON (paths as stored, i.e. relative to the file)."""
    items = [
        {"path": e.path, "label": e.label, "subject": e.subject_id, "session": e.session_id}
        for e in manifest.entries
    ]
    for bg in manifest.backgrounds:
        item = {"path": bg.path, "role": BACKGROUND_ROLE}
        if bg.session_id:
            item["session"] = bg.session_id
        items.append(item)
    payload = {
        "label_set": list(manifest.label_set),
        "sensor_id": manifest.sensor_id,
        "entries": items,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
