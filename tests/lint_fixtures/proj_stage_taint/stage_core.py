# lardlint: scope=determinism
"""Determinism-scoped caller posting the stages with their connection."""

from stage_util import Conn


def drive(engine, conn: Conn):
    engine.post(0.0, conn.tick_stage, conn)
    engine.post(0.0, conn.tock_stage, conn)
