"""Prompt-set loading: YAML files mapping set name -> subject/style/settings."""

from __future__ import annotations

from dataclasses import dataclass

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
        if not self.subject or not str(self.subject).strip():
            raise PromptError(f"prompt set {self.name!r}: subject must be nonempty")
        if not self.settings:
            raise PromptError(f"prompt set {self.name!r}: needs at least one setting")
        # str() would read a null as the text "None"
        if self.style is None:
            raise PromptError(f"prompt set {self.name!r}: field 'style' is null")
        if None in self.settings:
            raise PromptError(f"prompt set {self.name!r}: field 'settings' has a null entry")
        self.subject = str(self.subject)
        self.style = str(self.style)
        self.settings = [str(s) for s in self.settings]

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


def read_yaml(path, error: type, kind: str):
    """The YAML document in the `kind` file at path. A file that cannot be
    read, is not UTF-8 or is not valid YAML raises error, an input error
    that fails a run without a traceback."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return yaml.safe_load(fh)
    except OSError as exc:
        raise error(f"cannot read {kind} file {path}: {exc.strerror or exc}") from None
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise error(f"{kind} file {path} is not valid YAML: {exc}") from None


def load_prompts(path) -> list:
    """Load validated prompt sets in file order."""
    return parse_prompt_sets(read_yaml(path, PromptError, "prompt"))

