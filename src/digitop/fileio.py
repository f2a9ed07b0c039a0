"""Loading and saving images and maps as JSON files.

Image references are either ``builtin:<name>`` or a filesystem path; inside
a map file the domain and codomain may also be inline image objects.  Paths
inside a map file resolve relative to that file's directory.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import builders
from .errors import InvalidInputError
from .images import DigitalImage, image_from_json_dict
from .maps import DigitalMap, from_assignment

BUILTIN_PREFIX = "builtin:"


def _read_json(path: Path):
    """The JSON value of a UTF-8 file; an unreadable or malformed file names itself."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from exc


def load_image(source: str, base_dir: Path | None = None) -> DigitalImage:
    """Resolve an image reference: builtin:<name> or a JSON file path."""
    if source.startswith(BUILTIN_PREFIX):
        return builders.builtin(source[len(BUILTIN_PREFIX):])
    path = Path(source)
    if base_dir is not None and not path.is_absolute():
        path = base_dir / path
    return _image_of(_read_json(path), path)


def _image_of(data, path: Path) -> DigitalImage:
    """The image that the JSON value read from ``path`` describes."""
    try:
        return image_from_json_dict(data)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc


def _image_from_ref_or_inline(value, path: Path, label: str) -> DigitalImage:
    """The domain or codomain of the map file at ``path``; an error names the file and label.

    An error from a referenced image file names that file too.
    """
    if not isinstance(value, (str, dict)):
        raise InvalidInputError(f"{path}: {label} must be an image reference or inline object")
    try:
        if isinstance(value, str):
            return load_image(value, path.parent)
        return image_from_json_dict(value)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {label}: {exc}") from exc


def load_map(path_str: str) -> DigitalMap:
    """Load a map file; continuity failures carry the first violating edge.

    Malformed input raises ``InvalidInputError`` naming the file; a
    ``ContinuityError`` keeps its type, so callers can report the edge.
    """
    path = Path(path_str)
    return _map_of(_read_json(path), path)


def load_map_or_image(source: str) -> DigitalMap | DigitalImage:
    """A map file (a JSON object with an assignment) as a map; any other reference as an image.

    The file is read and parsed once.
    """
    path = Path(source)
    if source.startswith(BUILTIN_PREFIX) or not path.is_file():
        return load_image(source)
    data = _read_json(path)
    if isinstance(data, dict) and "assignment" in data:
        return _map_of(data, path)
    return _image_of(data, path)


def _map_of(data, path: Path) -> DigitalMap:
    """The map that the JSON value read from ``path`` describes."""
    if not isinstance(data, dict) or "assignment" not in data:
        raise InvalidInputError(f"{path}: a map file needs domain, codomain, assignment")
    domain = _image_from_ref_or_inline(data.get("domain"), path, "domain")
    codomain = _image_from_ref_or_inline(data.get("codomain"), path, "codomain")
    try:
        return from_assignment(domain, codomain, data["assignment"])
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc


def _dump(record: DigitalImage | DigitalMap, path_str: str | None) -> str:
    """The JSON text of an image or a map; writes it to the path when one is given."""
    text = json.dumps(record.to_json_dict(), sort_keys=True, indent=2)
    if path_str is not None:
        Path(path_str).write_text(text + "\n")
    return text


def dump_image(image: DigitalImage, path_str: str | None = None) -> str:
    """Serialize an image; writes to the path when one is given."""
    return _dump(image, path_str)


def dump_map(digital_map: DigitalMap, path_str: str | None = None) -> str:
    """Serialize a map; writes to the path when one is given."""
    return _dump(digital_map, path_str)
