"""tasklens: batch analytics for code-completion telemetry logs.

Ingests JSONL event logs from an Ansible-task completion service and reports
usage profiles, N-day retention, acceptance and strong-acceptance rates,
line-level edit analysis of accepted suggestions, module-edit categories, and
user-feedback aggregates.
"""
