open Flo_storage
open Flo_workloads

type caching = Lru | Demote | Karma | Custom of Policy.factory * Policy.factory

type result = {
  app : string;
  elapsed_us : float;
  l1 : Stats.t;
  l2 : Stats.t;
  disk_reads : int;
  block_requests : int;
  element_accesses : int;
  iterations : int;
  prefetches : int;
  prefetch_hits : int;
  l1_nodes : Stats.t array;
  l2_nodes : Stats.t array;
  thread_us : float array;
}

(* Miss rates comparable with the paper's Tables 2-3 use element accesses
   as the denominator: the work an execution performs is fixed, while the
   number of block requests the hierarchy sees depends on the layout. *)
let l1_miss_per_element r =
  if r.element_accesses = 0 then 0.
  else float_of_int r.l1.Stats.misses /. float_of_int r.element_accesses

let l2_miss_per_element r =
  if r.element_accesses = 0 then 0.
  else float_of_int r.l2.Stats.misses /. float_of_int r.element_accesses

let karma_hints_of_streams ~io_of_thread ~io_nodes weighted_streams =
  let hints = Array.make io_nodes [] in
  (* Flat per-file range accumulators, sized once to the largest file id in
     any stream.  Each thread's contribution fills (lo, hi, cnt) in one pass
     over its packed-int blocks, then a single downward sweep emits hints
     and zeroes cnt — no per-stream Hashtbl, no sort.  Walking files
     downward and consing yields hints ascending by file within the
     contribution, byte-identical to the reference sort-descending fold
     (files are unique per contribution, so (file, lo_block) order is file
     order).  [test_engine] pins the order; a qcheck regression test checks
     equality against the reference implementation. *)
  let max_file =
    List.fold_left
      (fun acc (_, streams) ->
        Array.fold_left
          (fun acc blocks ->
            Array.fold_left (fun acc b -> max acc (Block.file b)) acc blocks)
          acc streams)
      (-1) weighted_streams
  in
  let lo = Array.make (max_file + 1) 0 in
  let hi = Array.make (max_file + 1) 0 in
  let cnt = Array.make (max_file + 1) 0 in
  List.iter
    (fun (weight, streams) ->
      Array.iteri
        (fun thread blocks ->
          if Array.length blocks > 0 then begin
            (* one range per file touched by this thread in this nest *)
            Array.iter
              (fun b ->
                let file = Block.file b and idx = Block.index b in
                if cnt.(file) = 0 then begin
                  lo.(file) <- idx;
                  hi.(file) <- idx;
                  cnt.(file) <- 1
                end
                else begin
                  if idx < lo.(file) then lo.(file) <- idx;
                  if idx > hi.(file) then hi.(file) <- idx;
                  cnt.(file) <- cnt.(file) + 1
                end)
              blocks;
            let io = io_of_thread thread in
            for file = max_file downto 0 do
              if cnt.(file) > 0 then begin
                let hint =
                  {
                    Karma.file;
                    lo_block = lo.(file);
                    hi_block = hi.(file);
                    accesses = float_of_int (cnt.(file) * weight);
                  }
                in
                hints.(io) <- hint :: hints.(io);
                cnt.(file) <- 0
              end
            done
          end)
        streams)
    weighted_streams;
  hints

let run ?mapping ?(caching = Lru) ?assigns ?(sample = 1) ?(readahead = 0) ?sink ?metrics
    ?faults ~config ~layouts app =
  let topo = config.Config.topology in
  let threads = Topology.threads topo in
  let block_elems = topo.Topology.block_elems in
  let cluster = Topology.threads_per_io topo in
  let program = app.App.program in
  let nests = program.Flo_poly.Program.nests in
  let weighted_streams =
    Flo_obs.Span.with_ ?metrics "tracegen" (fun () ->
        List.mapi
          (fun i nest ->
            let assign = Option.map (fun f -> f i) assigns in
            let streams =
              Tracegen.nest_streams ~layouts ~block_elems ~threads
                ~blocks_per_thread:config.Config.blocks_per_thread ?assign ~cluster
                ~sample nest
            in
            (nest, streams))
          nests)
  in
  let mapping_fn =
    match mapping with
    | Some m -> fun t -> m.(t)
    | None -> fun t -> t mod topo.Topology.compute_nodes
  in
  (* the caching scheme is an inter-level protocol plus the caches to run
     it over; None keeps the hierarchy's default LRU caches *)
  let protocol, l1, l2 =
    let per_node nodes f = Some (Array.init nodes f) in
    match caching with
    | Lru -> (Hierarchy.Inclusive, None, None)
    | Demote -> (Hierarchy.Demote_exclusive, None, None)
    | Custom (f1, f2) ->
      ( Hierarchy.Inclusive,
        per_node topo.Topology.io_nodes (fun _ -> f1 ~capacity:topo.Topology.io_cache_blocks),
        per_node topo.Topology.storage_nodes (fun _ ->
            f2 ~capacity:topo.Topology.storage_cache_blocks) )
    | Karma ->
      let io_of_thread t = Topology.io_of_compute topo (mapping_fn t) in
      let hints =
        karma_hints_of_streams ~io_of_thread ~io_nodes:topo.Topology.io_nodes
          (List.map
             (fun (nest, streams) -> (nest.Flo_poly.Loop_nest.weight, streams))
             weighted_streams)
      in
      let plan =
        Karma.plan ~l1_hints:hints ~l1_capacity:topo.Topology.io_cache_blocks
          ~l2_capacity_total:(topo.Topology.storage_cache_blocks * topo.Topology.storage_nodes)
      in
      ( Hierarchy.Inclusive,
        per_node topo.Topology.io_nodes (fun io -> Karma.l1_cache plan ~io),
        per_node topo.Topology.storage_nodes (fun _ ->
            Karma.l2_cache plan ~storage_nodes:topo.Topology.storage_nodes) )
  in
  let hier =
    Hierarchy.create ?mapping ~protocol ?l1 ?l2 ~costs:config.Config.costs
      ~disk_params:config.Config.disk_params ~readahead ?sink ?metrics ?faults topo
  in
  let block_requests = ref 0 in
  let iterations = ref 0 in
  let element_accesses = ref 0 in
  (* per-thread MPI-IO data-sieving buffers (see Config.client_buffer_blocks),
     on the flat allocation-free LRU kernel *)
  let buffers =
    Array.init threads (fun _ ->
        Flat_lru.create ~capacity:config.Config.client_buffer_blocks)
  in
  let client_hit_us = config.Config.client_hit_us in
  let request thread (b : Block.t) =
    if Flat_lru.touch buffers.(thread) (b :> int) then
      Hierarchy.add_cpu_us hier ~thread client_hit_us
    else begin
      ignore (Flat_lru.insert buffers.(thread) (b :> int));
      incr block_requests;
      Hierarchy.access hier ~thread b
    end
  in
  List.iteri
    (fun i (nest, streams) ->
      ignore i;
      let iters =
        Tracegen.iterations_per_thread ~threads
          ~blocks_per_thread:config.Config.blocks_per_thread ~sample nest
      in
      for _rep = 1 to nest.Flo_poly.Loop_nest.weight do
        (* round-robin interleave across threads, [quantum] requests a turn *)
        let cursors = Array.make threads 0 in
        let live = ref threads in
        while !live > 0 do
          live := 0;
          for t = 0 to threads - 1 do
            let stream = streams.(t) in
            let len = Array.length stream in
            let upto = min len (cursors.(t) + config.Config.quantum) in
            for k = cursors.(t) to upto - 1 do
              request t stream.(k)
            done;
            cursors.(t) <- upto;
            if upto < len then incr live
          done
        done;
        let nrefs = List.length nest.Flo_poly.Loop_nest.refs in
        Array.iteri
          (fun t n ->
            iterations := !iterations + n;
            element_accesses := !element_accesses + (n * nrefs);
            Hierarchy.add_cpu_us hier ~thread:t
              (float_of_int n *. app.App.cpu_us_per_iteration))
          iters
      done)
    weighted_streams;
  (match sink with Some s -> s.Flo_obs.Sink.flush () | None -> ());
  {
    app = app.App.name;
    elapsed_us = Hierarchy.elapsed_us hier;
    l1 = Hierarchy.l1_stats hier;
    l2 = Hierarchy.l2_stats hier;
    disk_reads = Hierarchy.disk_reads hier;
    block_requests = !block_requests;
    element_accesses = !element_accesses;
    iterations = !iterations;
    prefetches = Hierarchy.prefetches hier;
    prefetch_hits = Hierarchy.prefetch_hits hier;
    l1_nodes =
      Array.init (Hierarchy.io_nodes hier) (fun i ->
          Stats.merge [ Hierarchy.l1_stats_of hier i ]);
    l2_nodes =
      Array.init (Hierarchy.storage_nodes hier) (fun i ->
          Stats.merge [ Hierarchy.l2_stats_of hier i ]);
    thread_us = Hierarchy.thread_clocks_us hier;
  }

let pp_result ppf r =
  Format.fprintf ppf
    "@[%s: time %.1f ms, L1 miss %.1f%%, L2 miss %.1f%%, %d requests, %d disk reads@]"
    r.app (r.elapsed_us /. 1000.)
    (100. *. Stats.miss_rate r.l1)
    (100. *. Stats.miss_rate r.l2)
    r.block_requests r.disk_reads
