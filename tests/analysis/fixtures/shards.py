"""Seeded shard-isolation violations (codecheck test fixture; AST only)."""


class Facade:
    def __init__(self, tracker):
        self.flood_tracker = tracker     # SI001: not a designated site

    def reset(self):
        self.flood_tracker = object()    # SI001: rebind splits the alias
