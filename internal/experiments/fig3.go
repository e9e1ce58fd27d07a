package experiments

import (
	"time"

	"repro/internal/codec"
	"repro/internal/format"
	"repro/internal/profile"
	"repro/internal/vidsim"
)

// fig3Runs is how many rounds of every speed step Fig3a codes.
const fig3Runs = 3

// Fig3aRow is one speed step's coding behaviour (Figure 3a): coding can be
// sped up at the expense of increased video size.
type Fig3aRow struct {
	Speed       format.SpeedStep
	EncodeSpeed float64 // × video realtime (wall-measured)
	DecodeSpeed float64 // × video realtime (wall-measured)
	SizeBytes   int
}

// Fig3a encodes a clip of the scene at every speed step (fixed keyframe
// interval 250, good quality, full fidelity otherwise) and measures coding
// speed and output size with the wall clock — the codec substrate's real
// behaviour, not the virtual model. The steps are coded in fig3Runs rounds
// and each step's fastest run counts, so load that passes over the host
// during one round does not decide the figure.
func Fig3a(scene string, seconds int) ([]Fig3aRow, error) {
	sc, err := vidsim.DatasetByName(scene)
	if err != nil {
		return nil, err
	}
	src := vidsim.NewSource(sc)
	frames := src.Clip(0, seconds*vidsim.FPS)
	dur := float64(seconds)
	rows := make([]Fig3aRow, len(format.SpeedSteps))
	for range fig3Runs {
		for i, ss := range format.SpeedSteps {
			p := codec.Params{Quality: format.QGood, Speed: ss, KeyframeI: 250}
			t0 := time.Now()
			enc, _, err := codec.Encode(frames, p)
			if err != nil {
				return nil, err
			}
			t1 := time.Now()
			if _, _, err := enc.Decode(); err != nil {
				return nil, err
			}
			r := &rows[i]
			r.Speed, r.SizeBytes = ss, enc.Size()
			r.EncodeSpeed = max(r.EncodeSpeed, dur/t1.Sub(t0).Seconds())
			r.DecodeSpeed = max(r.DecodeSpeed, dur/time.Since(t1).Seconds())
		}
	}
	return rows, nil
}

// RenderFig3a renders the Figure 3(a) table.
func RenderFig3a(rows []Fig3aRow) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Speed.String(), x0(r.EncodeSpeed), x0(r.DecodeSpeed), mb(float64(r.SizeBytes))})
	}
	return "Figure 3(a): coding speed vs size across speed steps\n" +
		Table([]string{"speed step", "encode", "decode", "size"}, out)
}

// Fig3bRow is one keyframe interval's behaviour (Figure 3b): smaller
// intervals let sparse consumers skip more frames in decoding.
type Fig3bRow struct {
	KeyframeI           int
	DecodeSparse        float64 // × realtime at 1/30 consumer sampling
	DecodeFull          float64 // × realtime at full-rate consumption
	SizeBytes           int
	FramesDecodedSparse int64
}

// Fig3b sweeps the keyframe interval and decodes with a sparse (1/30) and a
// full-rate consumer, on the virtual clock so GOP-skip effects are exact.
func Fig3b(scene string, seconds int) ([]Fig3bRow, error) {
	sc, err := vidsim.DatasetByName(scene)
	if err != nil {
		return nil, err
	}
	src := vidsim.NewSource(sc)
	frames := src.Clip(0, seconds*vidsim.FPS)
	dur := float64(seconds)
	sparse := format.Sampling{Num: 1, Den: 30}
	var rows []Fig3bRow
	for i := len(format.KeyframeIntervals) - 1; i >= 0; i-- { // 250 first, as the figure
		kf := format.KeyframeIntervals[i]
		enc, _, err := codec.Encode(frames, codec.Params{Quality: format.QGood, Speed: format.SpeedMedium, KeyframeI: kf})
		if err != nil {
			return nil, err
		}
		_, stSparse, err := enc.DecodeSampled(func(i int) bool { return sparse.Keep(enc.PTSAt(i)) })
		if err != nil {
			return nil, err
		}
		_, stFull, err := enc.Decode()
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig3bRow{
			KeyframeI:           kf,
			DecodeSparse:        dur / profile.DecodeSeconds(stSparse, stSparse.BytesFlate),
			DecodeFull:          dur / profile.DecodeSeconds(stFull, stFull.BytesFlate),
			SizeBytes:           enc.Size(),
			FramesDecodedSparse: stSparse.Frames,
		})
	}
	return rows, nil
}

// RenderFig3b renders the Figure 3(b) table.
func RenderFig3b(rows []Fig3bRow) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			f0(r.KeyframeI), x0(r.DecodeSparse), x0(r.DecodeFull), mb(float64(r.SizeBytes)), f0(int(r.FramesDecodedSparse)),
		})
	}
	return "Figure 3(b): keyframe interval vs sampled decode speed\n" +
		Table([]string{"kf interval", "decode@1/30", "decode@1", "size", "frames decoded@1/30"}, out)
}
