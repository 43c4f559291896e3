"""Verification harness: claim checkers, ensembles, and campaign driver."""
