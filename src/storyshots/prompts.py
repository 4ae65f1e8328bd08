"""Prompt-set loading: YAML files mapping set name -> subject/style/settings."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import yaml

from .errors import PromptError


@dataclass
class ShotPromptSet:
    name: str
    subject: str
    settings: list
    style: str

    def __post_init__(self):
        # the name becomes one directory under --out
        if self.name in ("", ".", "..") or "/" in self.name or "\\" in self.name:
            raise PromptError(f"prompt set name {self.name!r} must be one plain path component")
        if not self.settings:
            raise PromptError(f"prompt set {self.name!r}: needs at least one setting")
        # in the prompt a null would read as the text "None", a list or mapping as its repr
        for name, values in (("subject", [self.subject]), ("style", [self.style]),
                             ("settings", self.settings)):
            for v in values:
                if v is None:
                    raise PromptError(f"prompt set {self.name!r}: field {name!r} has a null value")
                if not isinstance(v, str):
                    raise PromptError(
                        f"prompt set {self.name!r}: field {name!r} must be text, "
                        f"got a {type(v).__name__}"
                    )
        if not self.subject.strip():
            raise PromptError(f"prompt set {self.name!r}: subject must be nonempty")

    @property
    def full_prompts(self) -> list:
        return [f"{self.subject} {setting}, {self.style}" for setting in self.settings]


def parse_prompt_sets(data: dict) -> list:
    if not isinstance(data, dict):
        raise PromptError("prompt file must be a mapping of set name -> fields")
    sets = []
    for name, entry in data.items():
        if not isinstance(entry, dict):
            raise PromptError(f"prompt set {name!r}: expected a mapping")
        missing = {"subject", "style", "settings"} - set(entry)
        if missing:
            raise PromptError(f"prompt set {name!r}: missing fields {sorted(missing)}")
        settings = entry["settings"]
        if not isinstance(settings, list):
            raise PromptError(f"prompt set {name!r}: field 'settings' must be a list")
        sets.append(ShotPromptSet(str(name), entry["subject"], settings, entry["style"]))
    return sets


def read_bytes(path, error: type, kind: str) -> bytes:
    """The bytes of the `kind` file at path. A file that cannot be read
    raises error, an input error that fails a run without a traceback."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise error(f"cannot read {kind} file {path}: {exc.strerror or exc}") from None


class _TextLoader(yaml.SafeLoader):
    """SafeLoader that reads every plain scalar as its text, except the null
    forms (`~`, `null`, an empty value): YAML 1.1 would turn a prompt's `no`,
    `on` or `0x10` into False, True or 16."""

    yaml_implicit_resolvers = {
        first: [(tag, regexp) for tag, regexp in resolvers if tag == "tag:yaml.org,2002:null"]
        for first, resolvers in yaml.SafeLoader.yaml_implicit_resolvers.items()
    }


def read_yaml(path, error: type, kind: str, data: bytes | None = None, loader=yaml.SafeLoader):
    """The YAML document in the `kind` file at path, parsed by loader from
    data (the file's bytes) or, when data is None, from a fresh read. A file
    that cannot be read, is not UTF-8 or is not valid YAML raises error."""
    if data is None:
        data = read_bytes(path, error, kind)
    try:
        return yaml.load(data.decode("utf-8"), Loader=loader)
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise error(f"{kind} file {path} is not valid YAML: {exc}") from None


def load_prompts(path, data: bytes | None = None) -> list:
    """Load validated prompt sets in file order, from data when the file's
    bytes were already read. Every field is read as the text written."""
    return parse_prompt_sets(read_yaml(path, PromptError, "prompt", data, _TextLoader))
