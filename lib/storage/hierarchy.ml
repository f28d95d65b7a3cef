type protocol = Inclusive | Demote_exclusive

type costs = { l1_hit_us : float; l2_hit_us : float; demote_us : float }

let default_costs = { l1_hit_us = 25.; l2_hit_us = 140.; demote_us = 8. }

(* The devirtualized hot path: when every cache is an exact LRU backed by
   Flat_lru, no fault injector is attached and no event sink is listening,
   [access] runs direct calls on these flat states — no closure record
   indirection, no Block.Tbl hashing, no per-request allocation. *)
type fast = { fl1 : Flat_lru.t array; fl2 : Flat_lru.t array }

type t = {
  topo : Topology.t;
  protocol : protocol;
  mapping : int array; (* thread -> compute node *)
  l1 : Policy.t array;
  l2 : Policy.t array;
  l1_stats : Stats.t array;
  l2_stats : Stats.t array;
  disks : Disk.t array;
  costs : costs;
  readahead : int;
  clocks : float array;
  (* readahead-inserted blocks not yet claimed by a demand access, per
     storage node: feeds Stats.prefetch_hits *)
  speculative : (Block.t, unit) Hashtbl.t array;
  sink : Flo_obs.Sink.t;
  (* resolved once at creation so the hot path never consults the registry *)
  request_hist : Flo_obs.Histogram.t option;
  disk_hists : Flo_obs.Histogram.t option array;
  (* thread -> I/O node, precomputed so [access] does not re-derive the
     Topology lookups per request *)
  io_tbl : int array;
  (* per storage node, the overlapped-readahead transfer charge
     0.2 *. transfer_us, hoisted out of the readahead loop (disk params
     are immutable after creation, so the value is IEEE-identical) *)
  ra_charge : float array;
  (* None guards the exact fault-free code path: with no injector every
     fault branch below is the unmodified original arithmetic *)
  faults : Flo_faults.Injector.t option;
  (* Some when the fault-free, sink-less hot path may bypass the Policy
     closures; resolved once at creation *)
  fast : fast option;
}

let create ?(protocol = Inclusive) ?mapping ?l1 ?l2 ?(costs = default_costs) ?disk_params
    ?(readahead = 0) ?(sink = Flo_obs.Sink.null) ?metrics ?faults topo =
  if readahead < 0 then invalid_arg "Hierarchy.create: negative readahead";
  let threads = Topology.threads topo in
  let mapping =
    match mapping with
    | None -> Array.init threads (fun t -> t mod topo.Topology.compute_nodes)
    | Some m ->
      if Array.length m <> threads then invalid_arg "Hierarchy.create: mapping length";
      Array.iter
        (fun c ->
          if c < 0 || c >= topo.Topology.compute_nodes then
            invalid_arg "Hierarchy.create: mapping target out of range")
        m;
      Array.copy m
  in
  let caches layer ~nodes ~capacity = function
    | Some caches ->
      if Array.length caches <> nodes then
        invalid_arg ("Hierarchy.create: " ^ layer ^ " cache count");
      caches
    | None -> Array.init nodes (fun _ -> Lru.create ~capacity)
  in
  let l1 =
    caches "l1" ~nodes:topo.Topology.io_nodes ~capacity:topo.Topology.io_cache_blocks l1
  in
  let l2 =
    caches "l2" ~nodes:topo.Topology.storage_nodes
      ~capacity:topo.Topology.storage_cache_blocks l2
  in
  let disks =
    Array.init topo.Topology.storage_nodes (fun _ -> Disk.create ?params:disk_params ())
  in
  let fast =
    let flat (caches : Policy.t array) =
      if Array.for_all (fun (c : Policy.t) -> c.Policy.fast <> None) caches then
        Some (Array.map (fun (c : Policy.t) -> Option.get c.Policy.fast) caches)
      else None
    in
    match (faults, flat l1, flat l2) with
    | None, Some fl1, Some fl2 when Flo_obs.Sink.is_null sink -> Some { fl1; fl2 }
    | _ -> None
  in
  {
    topo;
    protocol;
    mapping;
    l1;
    l2;
    l1_stats = Array.init topo.Topology.io_nodes (fun _ -> Stats.create ());
    l2_stats = Array.init topo.Topology.storage_nodes (fun _ -> Stats.create ());
    disks;
    costs;
    readahead;
    clocks = Array.make threads 0.;
    speculative =
      Array.init topo.Topology.storage_nodes (fun _ -> Hashtbl.create 64);
    sink;
    request_hist =
      Option.map (fun m -> Flo_obs.Metrics.histogram m "request_latency_us") metrics;
    disk_hists =
      Array.init topo.Topology.storage_nodes (fun i ->
          Option.map
            (fun m ->
              Flo_obs.Metrics.histogram m
                ~labels:[ ("node", string_of_int i) ]
                "disk_service_us")
            metrics);
    io_tbl =
      Array.init threads (fun th ->
          Topology.io_of_compute topo (mapping.(th) mod topo.Topology.compute_nodes));
    ra_charge = Array.map (fun d -> 0.2 *. (Disk.params d).Disk.transfer_us) disks;
    faults;
    fast;
  }

let topology t = t.topo

let io_node_of_thread t thread =
  if thread < 0 || thread >= Array.length t.clocks then
    invalid_arg "Hierarchy: thread out of range";
  t.io_tbl.(thread)

(* All events of one request carry the thread's clock at arrival: a trace
   orders requests on the simulated timeline without charging the request's
   own service time to its timestamp. *)
let emit t ~time_us ~kind ~layer ~node ~thread ?latency_us b =
  if not (Flo_obs.Sink.is_null t.sink) then
    t.sink.Flo_obs.Sink.emit
      (Flo_obs.Event.make ~time_us ~kind ~layer ~node ~thread ~file:(Block.file b)
         ~block:(Block.index b) ?latency_us ())

(* A block leaving an L2 cache can no longer yield a prefetch hit. *)
let record_l2_eviction t ~time_us ~thread ~sn victim =
  Stats.record_eviction t.l2_stats.(sn);
  Hashtbl.remove t.speculative.(sn) victim;
  emit t ~time_us ~kind:Flo_obs.Event.Evict ~layer:Flo_obs.Event.L2 ~node:sn ~thread victim

(* Install a block in an L1 cache; under DEMOTE an L1 victim moves to the
   MRU end of its storage node's cache. *)
let install_l1 t ~time_us ~io ~thread b =
  match t.l1.(io).Policy.insert b with
  | None -> ()
  | Some victim -> (
    Stats.record_eviction t.l1_stats.(io);
    emit t ~time_us ~kind:Flo_obs.Event.Evict ~layer:Flo_obs.Event.L1 ~node:io ~thread
      victim;
    match t.protocol with
    | Inclusive -> ()
    | Demote_exclusive ->
      let sn0 = Striping.storage_node_of ~storage_nodes:t.topo.Topology.storage_nodes victim in
      let sn, online =
        match t.faults with
        | None -> (sn0, true)
        | Some inj ->
          let sn = Flo_faults.Injector.route inj sn0 in
          (sn, Flo_faults.Injector.cache_online inj ~node:sn)
      in
      (* a demotion to an offline storage cache is a no-op: the client
         simply drops the block *)
      if online then begin
        Stats.record_demotion t.l2_stats.(sn);
        emit t ~time_us ~kind:Flo_obs.Event.Demote ~layer:Flo_obs.Event.L2 ~node:sn ~thread
          victim;
        t.clocks.(thread) <- t.clocks.(thread) +. t.costs.demote_us;
        match t.l2.(sn).Policy.insert victim with
        | Some v -> record_l2_eviction t ~time_us ~thread ~sn v
        | None -> ()
      end)

(* The retry-engine read path, used only when an injector is attached.  A
   failed attempt costs its full (wasted) service time; backoffs and the
   eventual failover read are also charged to the requesting thread's
   modeled clock.  With a zero-rate plan no draw ever fails and the returned
   cost is [0. +. (raw *. 1.0)] — IEEE-identical to the fault-free path. *)
let faulty_disk_read t inj ~time_us ~thread ~sn ~lba b =
  let policy = Flo_faults.Injector.retry_policy inj in
  let read node =
    let raw = Disk.service t.disks.(node) ~lba in
    let svc = raw *. Flo_faults.Injector.service_multiplier inj ~node in
    (match t.disk_hists.(node) with
    | Some h -> Flo_obs.Histogram.add h svc
    | None -> ());
    svc
  in
  let failover ~extra =
    (* retries exhausted or budget spent: read the replica on the next node
       (forced success — replicas don't share the transient failure) *)
    let node = Flo_faults.Injector.failover_node inj ~node:sn in
    Flo_faults.Injector.record_failover inj;
    let svc = read node in
    emit t ~time_us ~kind:Flo_obs.Event.Failover ~layer:Flo_obs.Event.Disk ~node ~thread
      ~latency_us:svc b;
    extra +. svc
  in
  let rec attempt k ~extra =
    let svc = read sn in
    if not (Flo_faults.Injector.draw_read_error inj ~node:sn) then begin
      emit t ~time_us ~kind:Flo_obs.Event.Disk_read ~layer:Flo_obs.Event.Disk ~node:sn
        ~thread ~latency_us:svc b;
      extra +. svc
    end
    else begin
      Flo_faults.Injector.record_fault inj;
      emit t ~time_us ~kind:Flo_obs.Event.Fault ~layer:Flo_obs.Event.Disk ~node:sn ~thread
        ~latency_us:svc b;
      let extra = extra +. svc in
      if k >= policy.Flo_faults.Retry.max_retries then failover ~extra
      else if extra >= policy.Flo_faults.Retry.timeout_us then begin
        Flo_faults.Injector.record_timeout inj;
        emit t ~time_us ~kind:Flo_obs.Event.Timeout ~layer:Flo_obs.Event.Disk ~node:sn
          ~thread b;
        failover ~extra
      end
      else begin
        let backoff = Flo_faults.Injector.backoff_us inj ~node:sn ~attempt:k in
        Flo_faults.Injector.record_retry inj;
        emit t ~time_us ~kind:Flo_obs.Event.Retry ~layer:Flo_obs.Event.Disk ~node:sn
          ~thread ~latency_us:backoff b;
        attempt (k + 1) ~extra:(extra +. backoff)
      end
    end
  in
  attempt 0 ~extra:0.

(* Generic path: Policy closures, event emission, fault injection.  Taken
   whenever a cache without flat state (KARMA's, Lru.reference), a sink or
   an injector is attached. *)
let access_generic t ~thread b =
  let io = t.io_tbl.(thread) in
  let time_us = t.clocks.(thread) in
  let cost = ref t.costs.l1_hit_us in
  emit t ~time_us ~kind:Flo_obs.Event.Access ~layer:Flo_obs.Event.L1 ~node:io ~thread b;
  if t.l1.(io).Policy.touch b then begin
    Stats.record_hit t.l1_stats.(io);
    emit t ~time_us ~kind:Flo_obs.Event.Hit ~layer:Flo_obs.Event.L1 ~node:io ~thread b
  end
  else begin
    Stats.record_miss t.l1_stats.(io);
    emit t ~time_us ~kind:Flo_obs.Event.Miss ~layer:Flo_obs.Event.L1 ~node:io ~thread b;
    let sn0 = Striping.storage_node_of ~storage_nodes:t.topo.Topology.storage_nodes b in
    let sn, l2_online =
      match t.faults with
      | None -> (sn0, true)
      | Some inj ->
        let sn = Flo_faults.Injector.route inj sn0 in
        (sn, Flo_faults.Injector.cache_online inj ~node:sn)
    in
    cost := !cost +. t.costs.l2_hit_us;
    if l2_online && t.l2.(sn).Policy.touch b then begin
      Stats.record_hit t.l2_stats.(sn);
      emit t ~time_us ~kind:Flo_obs.Event.Hit ~layer:Flo_obs.Event.L2 ~node:sn ~thread b;
      if Hashtbl.mem t.speculative.(sn) b then begin
        (* first demand touch of a readahead-inserted block *)
        Hashtbl.remove t.speculative.(sn) b;
        Stats.record_prefetch_hit t.l2_stats.(sn)
      end;
      (match t.protocol with
      | Inclusive -> ()
      | Demote_exclusive ->
        (* the client caches it now: deprioritize rather than keep hot *)
        ignore (t.l2.(sn).Policy.remove b);
        ignore (t.l2.(sn).Policy.insert_cold b))
    end
    else begin
      Stats.record_miss t.l2_stats.(sn);
      emit t ~time_us ~kind:Flo_obs.Event.Miss ~layer:Flo_obs.Event.L2 ~node:sn ~thread b;
      (* a speculative entry for a block the cache no longer holds is stale *)
      Hashtbl.remove t.speculative.(sn) b;
      (match t.faults with
      | Some inj when not l2_online -> Flo_faults.Injector.record_offline_miss inj
      | _ -> ());
      let lba =
        Striping.lba_of ~storage_nodes:t.topo.Topology.storage_nodes
          ~file_stride:Striping.default_file_stride b
      in
      let service =
        match t.faults with
        | None ->
          let service = Disk.service t.disks.(sn) ~lba in
          (match t.disk_hists.(sn) with
          | Some h -> Flo_obs.Histogram.add h service
          | None -> ());
          emit t ~time_us ~kind:Flo_obs.Event.Disk_read ~layer:Flo_obs.Event.Disk ~node:sn
            ~thread ~latency_us:service b;
          service
        | Some inj -> faulty_disk_read t inj ~time_us ~thread ~sn ~lba b
      in
      cost := !cost +. service;
      (* sequential readahead: the storage node speculatively pulls the next
         blocks of the same file into its cache.  The disk transfer overlaps
         with the demand read, so only a fraction of the transfer is charged
         to the requesting thread. *)
      if t.readahead > 0 && l2_online then begin
        let charge = t.ra_charge.(sn) in
        for k = 1 to t.readahead do
          (* next stripe unit on this storage node *)
          let next =
            Block.make ~file:(Block.file b)
              ~index:(Block.index b + (k * t.topo.Topology.storage_nodes))
          in
          if Block.index next / t.topo.Topology.storage_nodes < Striping.default_file_stride
             && not (t.l2.(sn).Policy.contains next)
          then begin
            Stats.record_prefetch t.l2_stats.(sn);
            Hashtbl.replace t.speculative.(sn) next ();
            emit t ~time_us ~kind:Flo_obs.Event.Prefetch ~layer:Flo_obs.Event.L2 ~node:sn
              ~thread next;
            cost := !cost +. charge;
            match t.l2.(sn).Policy.insert_cold next with
            | Some v -> record_l2_eviction t ~time_us ~thread ~sn v
            | None -> ()
          end
        done
      end;
      if l2_online then
        match t.protocol with
        | Inclusive ->
          (match t.l2.(sn).Policy.insert b with
          | Some v -> record_l2_eviction t ~time_us ~thread ~sn v
          | None -> ())
        | Demote_exclusive ->
          (* DEMOTE-LRU keeps plain LRU for read blocks too, but a block the
             client is about to cache enters at the cold end *)
          (match t.l2.(sn).Policy.insert_cold b with
          | Some v -> record_l2_eviction t ~time_us ~thread ~sn v
          | None -> ())
    end;
    install_l1 t ~time_us ~io ~thread b
  end;
  (match t.request_hist with
  | Some h -> Flo_obs.Histogram.add h !cost
  | None -> ());
  t.clocks.(thread) <- t.clocks.(thread) +. !cost

(* ---- devirtualized fast path ----------------------------------------

   Mirrors [access_generic] operation for operation under the conditions
   resolved at creation (no faults, null sink, every cache an exact LRU):
   same Stats mutations, same speculative-table updates, and the same
   left-associated float additions so modeled clocks are IEEE-byte-
   identical.  Emit calls are dropped — the sink is null, so they were
   no-ops.  The L1/L2 hit paths allocate nothing: costs flow through
   unboxed local floats straight into the clocks array. *)

let record_l2_eviction_fast t ~sn v =
  Stats.record_eviction t.l2_stats.(sn);
  Hashtbl.remove t.speculative.(sn) (Block.unsafe_of_int v)

let install_l1_fast t f ~io ~thread b =
  let v = Flat_lru.insert f.fl1.(io) (b : Block.t :> int) in
  if v >= 0 then begin
    Stats.record_eviction t.l1_stats.(io);
    match t.protocol with
    | Inclusive -> ()
    | Demote_exclusive ->
      let victim = Block.unsafe_of_int v in
      let sn =
        Striping.storage_node_of ~storage_nodes:t.topo.Topology.storage_nodes victim
      in
      Stats.record_demotion t.l2_stats.(sn);
      t.clocks.(thread) <- t.clocks.(thread) +. t.costs.demote_us;
      let v2 = Flat_lru.insert f.fl2.(sn) v in
      if v2 >= 0 then record_l2_eviction_fast t ~sn v2
  end

let access_fast t f ~thread b =
  let io = t.io_tbl.(thread) in
  let bi = (b : Block.t :> int) in
  if Flat_lru.touch f.fl1.(io) bi then begin
    Stats.record_hit t.l1_stats.(io);
    (match t.request_hist with
    | Some h -> Flo_obs.Histogram.add h t.costs.l1_hit_us
    | None -> ());
    t.clocks.(thread) <- t.clocks.(thread) +. t.costs.l1_hit_us
  end
  else begin
    Stats.record_miss t.l1_stats.(io);
    let sn = Striping.storage_node_of ~storage_nodes:t.topo.Topology.storage_nodes b in
    if Flat_lru.touch f.fl2.(sn) bi then begin
      Stats.record_hit t.l2_stats.(sn);
      if Hashtbl.mem t.speculative.(sn) b then begin
        (* first demand touch of a readahead-inserted block *)
        Hashtbl.remove t.speculative.(sn) b;
        Stats.record_prefetch_hit t.l2_stats.(sn)
      end;
      (match t.protocol with
      | Inclusive -> ()
      | Demote_exclusive ->
        (* the client caches it now: deprioritize rather than keep hot *)
        ignore (Flat_lru.remove f.fl2.(sn) bi);
        ignore (Flat_lru.insert_cold f.fl2.(sn) bi));
      install_l1_fast t f ~io ~thread b;
      let cost = t.costs.l1_hit_us +. t.costs.l2_hit_us in
      (match t.request_hist with
      | Some h -> Flo_obs.Histogram.add h cost
      | None -> ());
      t.clocks.(thread) <- t.clocks.(thread) +. cost
    end
    else begin
      Stats.record_miss t.l2_stats.(sn);
      (* a speculative entry for a block the cache no longer holds is stale *)
      Hashtbl.remove t.speculative.(sn) b;
      let lba =
        Striping.lba_of ~storage_nodes:t.topo.Topology.storage_nodes
          ~file_stride:Striping.default_file_stride b
      in
      let service = Disk.service t.disks.(sn) ~lba in
      (match t.disk_hists.(sn) with
      | Some h -> Flo_obs.Histogram.add h service
      | None -> ());
      let cost = ref (t.costs.l1_hit_us +. t.costs.l2_hit_us +. service) in
      if t.readahead > 0 then begin
        let charge = t.ra_charge.(sn) in
        for k = 1 to t.readahead do
          let next =
            Block.make ~file:(Block.file b)
              ~index:(Block.index b + (k * t.topo.Topology.storage_nodes))
          in
          if Block.index next / t.topo.Topology.storage_nodes < Striping.default_file_stride
             && not (Flat_lru.contains f.fl2.(sn) (next :> int))
          then begin
            Stats.record_prefetch t.l2_stats.(sn);
            Hashtbl.replace t.speculative.(sn) next ();
            cost := !cost +. charge;
            let v = Flat_lru.insert_cold f.fl2.(sn) (next :> int) in
            if v >= 0 then record_l2_eviction_fast t ~sn v
          end
        done
      end;
      (match t.protocol with
      | Inclusive ->
        let v = Flat_lru.insert f.fl2.(sn) bi in
        if v >= 0 then record_l2_eviction_fast t ~sn v
      | Demote_exclusive ->
        (* a block the client is about to cache enters at the cold end *)
        let v = Flat_lru.insert_cold f.fl2.(sn) bi in
        if v >= 0 then record_l2_eviction_fast t ~sn v);
      install_l1_fast t f ~io ~thread b;
      (match t.request_hist with
      | Some h -> Flo_obs.Histogram.add h !cost
      | None -> ());
      t.clocks.(thread) <- t.clocks.(thread) +. !cost
    end
  end

let access t ~thread b =
  if thread < 0 || thread >= Array.length t.clocks then
    invalid_arg "Hierarchy: thread out of range";
  match t.fast with
  | Some f -> access_fast t f ~thread b
  | None -> access_generic t ~thread b

let thread_clock_us t thread = t.clocks.(thread)

let elapsed_us t = Array.fold_left max 0. t.clocks

let thread_clocks_us t = Array.copy t.clocks

let add_cpu_us t ~thread us = t.clocks.(thread) <- t.clocks.(thread) +. us

let l1_stats t = Stats.merge (Array.to_list t.l1_stats)
let l2_stats t = Stats.merge (Array.to_list t.l2_stats)
let l1_stats_of t i = t.l1_stats.(i)
let l2_stats_of t i = t.l2_stats.(i)
let io_nodes t = Array.length t.l1_stats
let storage_nodes t = Array.length t.l2_stats

let disk_reads t = Array.fold_left (fun acc d -> acc + Disk.reads d) 0 t.disks

let prefetches t =
  Array.fold_left (fun acc s -> acc + s.Stats.prefetches) 0 t.l2_stats

let prefetch_hits t =
  Array.fold_left (fun acc s -> acc + s.Stats.prefetch_hits) 0 t.l2_stats

let reset t =
  Array.iter (fun (c : Policy.t) -> c.Policy.clear ()) t.l1;
  Array.iter (fun (c : Policy.t) -> c.Policy.clear ()) t.l2;
  Array.iter Stats.reset t.l1_stats;
  Array.iter Stats.reset t.l2_stats;
  Array.iter Disk.reset t.disks;
  Array.iter Hashtbl.reset t.speculative;
  Array.fill t.clocks 0 (Array.length t.clocks) 0.
