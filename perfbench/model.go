package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"neusight/internal/core"
	"neusight/internal/dataset"
	"neusight/internal/gpu"
	"neusight/internal/gpusim"
	"neusight/internal/predict"
	"neusight/internal/tile"
)

// modelFiles names the saved predictor and tile database the server loads
// with -model/-tiles and the benchmark loads for its output checks.
type modelFiles struct {
	Model, Tiles string
}

// prepareModel trains the reduced NeuSight predictor once and saves it
// under dir, keyed by a hash of this binary: the binary links the training
// code, so a changed predictor or dataset generator retrains instead of
// reusing a stale model. The training mirrors `neusight serve -quick` (same
// dataset generation and core configuration) without the five comparison
// baselines, which no workload routes to.
func prepareModel(dir string) (modelFiles, error) {
	self, err := os.Executable()
	if err != nil {
		return modelFiles{}, fmt.Errorf("locate benchmark binary: %w", err)
	}
	sum, err := fileHash(self)
	if err != nil {
		return modelFiles{}, err
	}
	dir = filepath.Join(dir, sum[:16])
	files := modelFiles{Model: filepath.Join(dir, "neusight-model.json"), Tiles: filepath.Join(dir, "tiles.json")}
	if exists(files.Model) && exists(files.Tiles) {
		return files, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return modelFiles{}, err
	}
	tdb := tile.NewDB()
	ds := dataset.Generate(dataset.GenConfig{
		Seed: 42, BMM: 300, FC: 150, EW: 120, Softmax: 60, LN: 60,
		GPUs: gpu.TrainSet(), MaxBMMDim: 1024,
	}, gpusim.New(), tdb)
	p := core.NewPredictor(core.Config{Hidden: 48, Layers: 3, Epochs: 40, BatchSize: 256, LR: 3e-3, WeightDecay: 1e-4, Seed: 42}, tdb)
	p.Train(ds)
	// Write both files under temporary names and rename the model last, so
	// an interrupted preparation never leaves a half-written pair behind.
	if err := tdb.Save(files.Tiles + ".tmp"); err != nil {
		return modelFiles{}, err
	}
	if err := p.Save(files.Model + ".tmp"); err != nil {
		return modelFiles{}, err
	}
	if err := os.Rename(files.Tiles+".tmp", files.Tiles); err != nil {
		return modelFiles{}, err
	}
	return files, os.Rename(files.Model+".tmp", files.Model)
}

// loadEngine loads the saved predictor the way `neusight serve -model`
// does and wraps it as the neusight engine.
func loadEngine(files modelFiles) (*predict.CoreEngine, error) {
	tdb, err := tile.LoadDB(files.Tiles)
	if err != nil {
		return nil, err
	}
	p, err := core.Load(files.Model, tdb)
	if err != nil {
		return nil, err
	}
	return predict.NewCoreEngine(p), nil
}

// servedRegistry returns the engine set `neusight serve -model` registers:
// the loaded predictor plus the engines that need no training. wrap, when
// non-nil, decorates each engine before registration.
func servedRegistry(neusight predict.Engine, wrap func(predict.Engine) predict.Engine) *predict.Registry {
	if wrap == nil {
		wrap = func(e predict.Engine) predict.Engine { return e }
	}
	reg := predict.NewRegistry()
	reg.MustRegister(wrap(neusight))
	reg.MustRegister(wrap(predict.NewRooflineEngine()))
	reg.MustRegister(wrap(predict.NewSimEngine(gpusim.New())))
	return reg
}

func fileHash(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("hash %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
