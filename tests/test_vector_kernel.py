"""The vector backend's kernel build cache."""

from __future__ import annotations

from repro.sim.vector import kernel


def test_build_prunes_superseded_kernels(tmp_path, monkeypatch):
    """A successful build unlinks the other ``kernel-*.so`` files, so
    editing the source does not leave one stale object per edit."""
    src = tmp_path / "kernel.c"
    build = tmp_path / "_build"
    monkeypatch.setattr(kernel, "_SRC", src)
    monkeypatch.setattr(kernel, "_BUILD_DIR", build)
    src.write_text("int k_version(void) { return 1; }\n")
    first = kernel._ensure_built()
    (build / "notes.txt").write_text("not a kernel")
    src.write_text("int k_version(void) { return 2; }\n")
    second = kernel._ensure_built()
    assert first != second
    assert sorted(p.name for p in build.iterdir()) == sorted(
        [second.name, "notes.txt"]
    )
    # An up-to-date build is reused without touching the directory.
    assert kernel._ensure_built() == second
