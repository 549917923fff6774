# Convenience targets; everything also works as plain pytest/pip.

.PHONY: install test test-fast examples paper clean

install:
	pip install -e .

test:
	pytest tests/

test-fast:
	pytest tests/ -m "not slow" -x -q

examples:
	python examples/quickstart.py
	python examples/surveillance_camera.py
	python examples/drone_fleet_multitenancy.py
	python examples/accuracy_bandwidth_tradeoff.py
	python examples/adaptive_quality.py
	python examples/capacity_planning.py
	python examples/day_in_the_life.py
	python examples/controller_tuning.py
	python examples/chaos_fleet.py
	python examples/chaos_supervision.py

# wall-clock demos (take real seconds, use asyncio/sockets)
examples-realtime:
	python examples/realtime_demo.py
	python examples/socket_offload.py

# regenerate every paper table/figure via the CLI
paper:
	framefeedback all

# run every reproduction claim as an executable checklist
validate:
	framefeedback validate

clean:
	rm -rf .pytest_cache build dist src/*.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
